package auth

import (
	"context"

	"repro/internal/crp"
	"repro/internal/errormap"
	"repro/internal/mapkey"
)

// authVoltagesLocked lists the client's planes usable for ordinary
// challenges. Callers hold rec.mu.
func authVoltagesLocked(rec *clientRecord) []int {
	var out []int
	for _, v := range rec.physMap.Voltages() {
		if !rec.reserved[v] {
			out = append(out, v)
		}
	}
	return out
}

// logicalFieldLocked returns (building and caching as needed) the distance
// field of the client's logical plane at the voltage under the current
// key. Callers hold rec.mu.
func logicalFieldLocked(id ClientID, rec *clientRecord, vddMV int) (*errormap.DistanceField, error) {
	if f, ok := rec.logicalFields[vddMV]; ok {
		return f, nil
	}
	phys := rec.physMap.Plane(vddMV)
	if phys == nil {
		return nil, authErrf(CodeBadPlane, id, "%w: %d mV", ErrBadPlane, vddMV)
	}
	logical := LogicalPlane(phys, rec.key, vddMV)
	f := logical.DistanceTransform()
	rec.logicalFields[vddMV] = f
	return f, nil
}

// IssueChallenge draws a fresh challenge for the client at a random
// non-reserved voltage plane, burning the underlying physical pairs in
// the no-reuse registry. The returned challenge uses logical
// coordinates and a server-assigned ID the client must echo.
func (s *Server) IssueChallenge(ctx context.Context, id ClientID) (*crp.Challenge, error) {
	if err := ctxErr(ctx, id); err != nil {
		return nil, err
	}
	rec, ok := s.store.Get(id)
	if !ok {
		return nil, authErrf(CodeUnknownClient, id, "%w: %q", ErrUnknownClient, id)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	vs := authVoltagesLocked(rec)
	if len(vs) == 0 {
		return nil, authErrf(CodeInvalidRequest, id, "auth: no non-reserved voltage planes enrolled")
	}
	vdd := vs[s.randIntn(len(vs))]
	return s.issueAtLocked(id, rec, vdd)
}

// IssueChallengeAt issues at a specific enrolled, non-reserved
// voltage.
func (s *Server) IssueChallengeAt(ctx context.Context, id ClientID, vddMV int) (*crp.Challenge, error) {
	if err := ctxErr(ctx, id); err != nil {
		return nil, err
	}
	rec, ok := s.store.Get(id)
	if !ok {
		return nil, authErrf(CodeUnknownClient, id, "%w: %q", ErrUnknownClient, id)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.reserved[vddMV] {
		return nil, authErrf(CodeInvalidRequest, id, "auth: %d mV is reserved for key updates", vddMV)
	}
	return s.issueAtLocked(id, rec, vddMV)
}

// IssueChallengeMulti issues a challenge whose bits are spread evenly
// across all of the client's non-reserved voltage planes — the paper's
// multi-Vdd extension (Section 4.3 leaves the optimisation to future
// work; the client minimises rail transitions by answering bits in
// descending-voltage order). More planes per challenge multiply the
// CRP space and force an attacker to model every plane at once.
func (s *Server) IssueChallengeMulti(ctx context.Context, id ClientID) (*crp.Challenge, error) {
	if err := ctxErr(ctx, id); err != nil {
		return nil, err
	}
	rec, ok := s.store.Get(id)
	if !ok {
		return nil, authErrf(CodeUnknownClient, id, "%w: %q", ErrUnknownClient, id)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	vs := authVoltagesLocked(rec)
	if len(vs) == 0 {
		return nil, authErrf(CodeInvalidRequest, id, "auth: no non-reserved voltage planes enrolled")
	}
	vdds := make([]int, s.cfg.ChallengeBits)
	for i := range vdds {
		vdds[i] = vs[i%len(vs)]
	}
	return s.issueWithVddsLocked(id, rec, vdds)
}

// issueAtLocked issues a single-voltage challenge. Callers hold rec.mu.
func (s *Server) issueAtLocked(id ClientID, rec *clientRecord, vddMV int) (*crp.Challenge, error) {
	vdds := make([]int, s.cfg.ChallengeBits)
	for i := range vdds {
		vdds[i] = vddMV
	}
	return s.issueWithVddsLocked(id, rec, vdds)
}

// issueWithVddsLocked generates one challenge whose bit i runs at vdds[i].
// Permutations and distance fields are resolved per distinct voltage
// from the record's key-scoped caches. Callers hold rec.mu.
func (s *Server) issueWithVddsLocked(id ClientID, rec *clientRecord, vdds []int) (*crp.Challenge, error) {
	g := rec.physMap.Geometry()
	fields := map[int]*errormap.DistanceField{}
	perms := map[int]*mapkey.Permutation{}
	for _, v := range vdds {
		if _, ok := fields[v]; ok {
			continue
		}
		field, err := logicalFieldLocked(id, rec, v)
		if err != nil {
			return nil, err
		}
		fields[v] = field
		perms[v] = rec.permLocked(v)
	}

	ch := &crp.Challenge{ID: rec.nextID, Bits: make([]crp.PairBit, len(vdds))}
	physBits := make([]crp.PairBit, len(vdds))
	const maxRetries = 64
	for i := range ch.Bits {
		vdd := vdds[i]
		perm := perms[vdd]
		ok := false
		for attempt := 0; attempt < maxRetries; attempt++ {
			a, b := s.randIntn2(g.Lines)
			if a == b {
				continue
			}
			// The registry is canonical over *physical* pairs so that
			// key rotation cannot resurrect consumed challenges. Each
			// pair burns as it is drawn: a pair consumed earlier, or
			// drawn twice in this challenge, is a refused burn.
			pa, pb := perm.Unmap(a), perm.Unmap(b)
			phys := crp.PairBit{A: pa, B: pb, VddMV: vdd}
			if !rec.registry.Burn(phys) {
				continue
			}
			ch.Bits[i] = crp.PairBit{A: a, B: b, VddMV: vdd}
			physBits[i] = phys
			ok = true
			break
		}
		if !ok {
			// A failed issue leaves the registry as it found it.
			rec.registry.Unburn(physBits[:i])
			return nil, authErr(CodeExhausted, id, ErrExhausted)
		}
	}
	if s.journal != nil {
		// Journal before the challenge can leave the server; the
		// append returns once the record is fsynced (group commit
		// amortises the sync across concurrent issues). On failure the
		// pairs stay burned in memory — the conservative direction:
		// no challenge was issued, so nothing replayable exists.
		err := s.journal.JournalBurn(string(id), physBits, rec.nextID+1, rec.crpsSinceRemap+len(ch.Bits))
		if err != nil {
			return nil, unavailableErr(id, err)
		}
	}

	// Precompute the expected response on the logical planes. A
	// last-voltage memo skips the map lookup on the common
	// single-voltage challenge.
	expected := crp.NewResponse(len(ch.Bits))
	var field *errormap.DistanceField
	lastVdd := -1
	for i, b := range ch.Bits {
		if b.VddMV != lastVdd {
			field = fields[b.VddMV]
			lastVdd = b.VddMV
		}
		da, fa := field.DistLine(b.A), field != nil
		db, fb := field.DistLine(b.B), field != nil
		expected.SetBit(i, crp.ResponseBit(da, fa, db, fb))
	}
	rec.pending[ch.ID] = pendingChallenge{ch: ch, expected: expected}
	rec.nextID++
	rec.crpsSinceRemap += len(ch.Bits)
	s.stats.issued.Add(1)
	return cloneChallenge(ch), nil
}

// NeedsRemap reports whether the client has consumed its CRP budget
// under the current key and should rotate (Section 6.7 mitigation).
func (s *Server) NeedsRemap(id ClientID) bool {
	rec, ok := s.store.Get(id)
	if !ok || s.cfg.RemapAfterCRPs <= 0 {
		return false
	}
	rec.mu.Lock()
	n := rec.crpsSinceRemap
	rec.mu.Unlock()
	return n >= s.cfg.RemapAfterCRPs
}
