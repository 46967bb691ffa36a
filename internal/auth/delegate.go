package auth

import (
	"context"
	"hash/fnv"
	"slices"

	"repro/internal/crp"
	"repro/internal/errormap"
)

// Delegated challenge issuance is the follower read-scaling protocol:
// a follower samples a challenge against its replicated state without
// consuming anything, the primary validates the sample, burns the
// pairs in the authoritative registry and journals the burn (which
// then replicates back), and the follower installs the pending
// challenge under the primary-assigned id. The expensive work — pair
// sampling, logical-field distance transforms, expected-response
// HMACs, and the eventual verification — all runs on the follower;
// the primary's share is a short critical section plus one journaled
// record. The no-reuse invariant stays global because only the
// primary ever consumes.
//
// A proposal races two things, both detected: a concurrent challenge
// consuming the same pair (the primary refuses; the follower
// resamples) and a key rotation (the key fingerprint mismatches on
// the primary or at commit time; the transaction aborts).

// DelegatedProposal is a follower-sampled challenge awaiting primary
// approval: logical coordinates for the client, canonical physical
// pairs for the registry, and a fingerprint of the remap key the
// sample was drawn under.
type DelegatedProposal struct {
	Logical []crp.PairBit
	Phys    []crp.PairBit
	KeySum  uint64
}

// keySumLocked fingerprints the client's current remap key for
// staleness detection (not secrecy — the fingerprint never leaves the
// replication link). Callers hold rec.mu.
func keySumLocked(rec *clientRecord) uint64 {
	h := fnv.New64a()
	h.Write(rec.key[:])
	return h.Sum64()
}

// SampleChallenge draws the pairs of a single-voltage challenge
// without consuming, journaling, or installing anything: the
// follower's half of delegated issuance. The sample avoids pairs the
// local registry replica already saw, so proposals rarely conflict on
// the primary.
func (s *Server) SampleChallenge(ctx context.Context, id ClientID) (*DelegatedProposal, error) {
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
	perm := rec.permLocked(vdd)
	g := rec.physMap.Geometry()

	n := s.cfg.ChallengeBits
	prop := &DelegatedProposal{
		Logical: make([]crp.PairBit, n),
		Phys:    make([]crp.PairBit, n),
		KeySum:  keySumLocked(rec),
	}
	keys := make([]uint64, n)
	const maxRetries = 64
	for i := 0; i < n; i++ {
		ok := false
		for attempt := 0; attempt < maxRetries; attempt++ {
			a, b := s.randIntn2(g.Lines)
			if a == b {
				continue
			}
			pa, pb := perm.Unmap(a), perm.Unmap(b)
			phys := crp.PairBit{A: pa, B: pb, VddMV: vdd}
			// Probe only: the replica changes through replication alone.
			key, free := rec.registry.Probe(phys)
			if !free || slices.Contains(keys[:i], key) {
				continue
			}
			prop.Logical[i] = crp.PairBit{A: a, B: b, VddMV: vdd}
			prop.Phys[i] = phys
			keys[i] = key
			ok = true
			break
		}
		if !ok {
			return nil, authErr(CodeExhausted, id, ErrExhausted)
		}
	}
	return prop, nil
}

// ApproveBurn is the primary's half of delegated issuance: validate a
// proposal against the authoritative registry and key, consume its
// pairs, journal the burn, and assign the challenge id. The burn
// record replicates to every follower through the ordinary log
// stream, converging their registry replicas.
func (s *Server) ApproveBurn(ctx context.Context, id ClientID, phys []crp.PairBit, keySum uint64) (uint64, error) {
	if err := ctxErr(ctx, id); err != nil {
		return 0, err
	}
	rec, ok := s.store.Get(id)
	if !ok {
		return 0, authErrf(CodeUnknownClient, id, "%w: %q", ErrUnknownClient, id)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if keySumLocked(rec) != keySum {
		return 0, authErrf(CodeInvalidRequest, id, "auth: proposal sampled under a rotated key")
	}
	// Pairwise-distinct, unused and in range, or the whole proposal is
	// refused — the follower resamples against its (by then fresher)
	// replica.
	if !rec.registry.Consume(&crp.Challenge{Bits: phys}) {
		return 0, authErrf(CodeInvalidRequest, id, "auth: proposal pair already consumed, repeated or out of range")
	}
	if s.journal != nil {
		// Same discipline as issueWithVddsLocked: journal before the
		// grant can leave the server; on failure the pairs stay burned
		// in memory (nothing replayable was issued).
		err := s.journal.JournalBurn(string(id), phys, rec.nextID+1, rec.crpsSinceRemap+len(phys))
		if err != nil {
			return 0, unavailableErr(id, err)
		}
	}
	chID := rec.nextID
	rec.nextID++
	rec.crpsSinceRemap += len(phys)
	s.stats.issued.Add(1)
	return chID, nil
}

// CommitDelegated is the follower's closing half: after the primary
// granted challengeID for prop, mark the pairs in the local replica,
// precompute the expected response on the local logical planes, and
// install the pending challenge so verification runs entirely on the
// follower. The replicated burn record arriving later re-marks the
// same pairs idempotently.
func (s *Server) CommitDelegated(ctx context.Context, id ClientID, challengeID uint64, prop *DelegatedProposal) (*crp.Challenge, error) {
	if err := ctxErr(ctx, id); err != nil {
		return nil, err
	}
	rec, ok := s.store.Get(id)
	if !ok {
		return nil, authErrf(CodeUnknownClient, id, "%w: %q", ErrUnknownClient, id)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if keySumLocked(rec) != prop.KeySum {
		return nil, authErrf(CodeInvalidRequest, id, "auth: key rotated between sample and grant")
	}
	rec.registry.Mark(prop.Phys)
	ch := &crp.Challenge{ID: challengeID, Bits: prop.Logical}
	expected := crp.NewResponse(len(ch.Bits))
	var field *errormap.DistanceField
	lastVdd := -1
	for i, b := range ch.Bits {
		if b.VddMV != lastVdd {
			f, err := logicalFieldLocked(id, rec, b.VddMV)
			if err != nil {
				return nil, err
			}
			field = f
			lastVdd = b.VddMV
		}
		da, fa := field.DistLine(b.A), field != nil
		db, fb := field.DistLine(b.B), field != nil
		expected.SetBit(i, crp.ResponseBit(da, fa, db, fb))
	}
	rec.pending[ch.ID] = pendingChallenge{ch: ch, expected: expected}
	if challengeID >= rec.nextID {
		rec.nextID = challengeID + 1
	}
	rec.crpsSinceRemap += len(ch.Bits)
	return cloneChallenge(ch), nil
}
