// Package crp defines Authenticache's challenge-response pairs and
// their lifecycle (paper Sections 4.1–4.2).
//
// A challenge is a sequence of coordinate pairs on the (logical) error
// map; each pair contributes one response bit answering "is point A at
// least as close to an error as point B?" (paper equations (7)–(8)).
// Distances are Manhattan (equation (9)); ties respond 0, which is the
// source of the slight 0-bias the paper observes in Figure 12.
//
// Because challenges are built from *pairs* of arbitrary coordinates,
// a cache with n lines offers n(n-1)/2 distinct pairs (equation (10)).
// The package also implements the server-side no-reuse registry: once
// a pair (A,B) is consumed, both (A,B) and (B,A) are dead forever
// (Section 4.4's replay defence).
package crp

import (
	"fmt"
	"sync"

	"repro/internal/errormap"
	"repro/internal/rng"
)

// PairBit is one bit of a challenge: two line positions to compare and
// the supply voltage (in millivolts) whose error plane the comparison
// runs on. Positions are logical indices — the keyed remap has already
// been applied by the time a PairBit goes on the wire.
type PairBit struct {
	A     int `json:"a"`
	B     int `json:"b"`
	VddMV int `json:"vdd_mv"`
}

// Challenge is an ordered list of pair bits.
type Challenge struct {
	// ID identifies the challenge within one authentication session.
	ID   uint64    `json:"id"`
	Bits []PairBit `json:"bits"`
}

// Len returns the number of response bits the challenge produces.
func (c *Challenge) Len() int { return len(c.Bits) }

// Voltages returns the distinct voltage levels used by the challenge,
// in first-appearance order.
func (c *Challenge) Voltages() []int {
	seen := map[int]bool{}
	var out []int
	for _, b := range c.Bits {
		if !seen[b.VddMV] {
			seen[b.VddMV] = true
			out = append(out, b.VddMV)
		}
	}
	return out
}

// Validate checks every coordinate against the geometry.
func (c *Challenge) Validate(g errormap.Geometry) error {
	if len(c.Bits) == 0 {
		return fmt.Errorf("crp: empty challenge")
	}
	for i, b := range c.Bits {
		if b.A < 0 || b.A >= g.Lines || b.B < 0 || b.B >= g.Lines {
			return fmt.Errorf("crp: bit %d references line outside [0,%d)", i, g.Lines)
		}
		if b.A == b.B {
			return fmt.Errorf("crp: bit %d compares a line with itself", i)
		}
	}
	return nil
}

// Response is a packed bit vector, bit i of the challenge at
// Bits[i/8]>>(i%8)&1.
type Response struct {
	Bits []byte `json:"bits"`
	N    int    `json:"n"`
}

// NewResponse allocates an all-zero response of n bits.
func NewResponse(n int) Response {
	return Response{Bits: make([]byte, (n+7)/8), N: n}
}

// Bit returns response bit i.
func (r Response) Bit(i int) int {
	if i < 0 || i >= r.N {
		panic(fmt.Sprintf("crp: response bit %d out of range [0,%d)", i, r.N))
	}
	return int(r.Bits[i/8]>>(uint(i)%8)) & 1
}

// SetBit sets response bit i to v.
func (r Response) SetBit(i, v int) {
	if i < 0 || i >= r.N {
		panic(fmt.Sprintf("crp: response bit %d out of range [0,%d)", i, r.N))
	}
	if v&1 == 1 {
		r.Bits[i/8] |= 1 << (uint(i) % 8)
	} else {
		r.Bits[i/8] &^= 1 << (uint(i) % 8)
	}
}

// HammingDistance counts differing bits between two responses of equal
// length.
func (r Response) HammingDistance(other Response) int {
	if r.N != other.N {
		panic("crp: response length mismatch")
	}
	d := 0
	for i := range r.Bits {
		x := r.Bits[i] ^ other.Bits[i]
		for x != 0 {
			x &= x - 1
			d++
		}
	}
	return d
}

// DistanceOracle answers nearest-error distance queries for one
// voltage plane. The server backs it with a precomputed distance
// field; the client backs it with live targeted self-tests.
type DistanceOracle interface {
	// NearestDistance returns the Manhattan distance from the given
	// line position to the closest error on the plane, and whether any
	// error was found at all.
	NearestDistance(line int) (dist int, found bool)
}

// OracleSet provides a DistanceOracle per voltage level.
type OracleSet interface {
	Oracle(vddMV int) (DistanceOracle, error)
}

// ResponseBit computes one response bit per paper equation (8) given
// the two distances: 0 if dist(A) <= dist(B), else 1. Missing errors
// count as infinitely far; two missing distances tie to 0.
func ResponseBit(distA int, foundA bool, distB int, foundB bool) int {
	switch {
	case foundA && foundB:
		if distA <= distB {
			return 0
		}
		return 1
	case foundA:
		return 0
	case foundB:
		return 1
	default:
		return 0
	}
}

// Evaluate runs a challenge against the oracle set, producing the
// response. Bits are evaluated in challenge order.
func Evaluate(c *Challenge, oracles OracleSet) (Response, error) {
	resp := NewResponse(len(c.Bits))
	for i, b := range c.Bits {
		o, err := oracles.Oracle(b.VddMV)
		if err != nil {
			return Response{}, fmt.Errorf("crp: bit %d: %w", i, err)
		}
		da, fa := o.NearestDistance(b.A)
		db, fb := o.NearestDistance(b.B)
		resp.SetBit(i, ResponseBit(da, fa, db, fb))
	}
	return resp, nil
}

// FieldOracle adapts an errormap.DistanceField (server side).
type FieldOracle struct {
	Field *errormap.DistanceField
}

// NearestDistance implements DistanceOracle.
func (f FieldOracle) NearestDistance(line int) (int, bool) {
	if f.Field == nil {
		return 0, false
	}
	return f.Field.DistLine(line), true
}

// PlaneOracles serves FieldOracles for the planes of an error map,
// computing and caching distance fields lazily.
type PlaneOracles struct {
	Map    *errormap.Map
	fields map[int]*errormap.DistanceField
}

// NewPlaneOracles wraps an error map.
func NewPlaneOracles(m *errormap.Map) *PlaneOracles {
	return &PlaneOracles{Map: m, fields: make(map[int]*errormap.DistanceField)}
}

// Oracle implements OracleSet.
func (p *PlaneOracles) Oracle(vddMV int) (crpOracle DistanceOracle, err error) {
	if f, ok := p.fields[vddMV]; ok {
		return FieldOracle{Field: f}, nil
	}
	plane := p.Map.Plane(vddMV)
	if plane == nil {
		return nil, fmt.Errorf("crp: no error plane at %d mV", vddMV)
	}
	f := plane.DistanceTransform()
	p.fields[vddMV] = f
	return FieldOracle{Field: f}, nil
}

// Generate draws a challenge of nbits random pairs at one voltage
// level. Pairs are distinct positions but may repeat across bits; the
// no-reuse registry is enforced separately at issue time.
func Generate(g errormap.Geometry, nbits, vddMV int, r *rng.Rand) *Challenge {
	if nbits <= 0 {
		panic("crp: challenge needs at least one bit")
	}
	c := &Challenge{Bits: make([]PairBit, nbits)}
	for i := range c.Bits {
		a := r.Intn(g.Lines)
		b := r.Intn(g.Lines)
		for b == a {
			b = r.Intn(g.Lines)
		}
		c.Bits[i] = PairBit{A: a, B: b, VddMV: vddMV}
	}
	return c
}

// PossibleCRPs returns the total number of unordered pairs available
// from n lines: n(n-1)/2 (paper equation (10)).
func PossibleCRPs(n int) uint64 {
	un := uint64(n)
	return un * (un - 1) / 2
}

// DailyAuthentications computes the sustainable daily authentication
// rate over a lifetime, never reusing a pair: each authentication of
// crpBits bits consumes crpBits pairs (paper Table 1).
func DailyAuthentications(lines, crpBits, lifetimeDays int) uint64 {
	if crpBits <= 0 || lifetimeDays <= 0 {
		panic("crp: invalid lifetime parameters")
	}
	return PossibleCRPs(lines) / uint64(crpBits) / uint64(lifetimeDays)
}

// pairKey canonicalises an unordered pair at a voltage.
type pairKey struct {
	lo, hi, vdd int
}

func canonical(b PairBit) pairKey {
	if b.A <= b.B {
		return pairKey{b.A, b.B, b.VddMV}
	}
	return pairKey{b.B, b.A, b.VddMV}
}

// A registry key packs a canonical pair into one word:
// vdd<<48 | lo<<24 | hi. Coordinates take 24-bit lanes (2^24 lines is
// a 1 GiB cache of 64-byte lines) and the rail voltage the top 16
// (millivolts below 65.536 V).
const (
	coordBits = 24
	maxLines  = 1 << coordBits
	maxVddMV  = 1 << (64 - 2*coordBits)
)

// maxDensePairs bounds the dense representation: a voltage plane
// whose full pair space fits in this many bits (8 MiB of bitset) is
// tracked densely; anything larger falls back to the hash map so a
// big cache never preallocates gigabytes for a mostly-unused space.
const maxDensePairs = 1 << 26

// Registry tracks consumed pairs so no pair is ever reused in either
// orientation. It is safe for concurrent use.
//
// Two representations share the one API. The sparse form keeps each
// burned pair's one-word key in a map — memory proportional to
// consumption, one 8-byte hash per probe. The dense form
// (NewRegistryLines, when the geometry's n(n-1)/2 pair space is small
// enough) keeps one lazily-allocated bitset per voltage plane and
// indexes pairs by their triangular number: probes and burns are
// single bit operations. Both refuse a pair outside the registry's
// range — a coordinate outside [0, span), lo == hi, or a voltage
// outside [0, maxVddMV) — because the sparse key of such a pair could
// alias an in-range one and the dense bitset cannot address it.
type Registry struct {
	span int // coordinates lie in [0, span); fixed at construction

	mu   sync.Mutex
	used map[uint64]struct{} // sparse mode; nil in dense mode

	// Dense mode.
	lines  int              // 0 in sparse mode
	npairs uint64           // lines*(lines-1)/2
	planes map[int][]uint64 // vdd -> triangular bitset
	count  int              // set bits across planes
}

// NewRegistry creates an empty sparse registry for an unknown
// geometry: any coordinate below 2^24 is in range.
func NewRegistry() *Registry {
	return &Registry{span: maxLines, used: make(map[uint64]struct{})}
}

// NewRegistryLines creates an empty registry for a known cache
// geometry, choosing the dense bitset representation when the pair
// space is small enough and the sparse map otherwise. Past 2^24 lines
// the key has no room: coordinates from 2^24 up are refused, never
// aliased.
func NewRegistryLines(lines int) *Registry {
	switch {
	case lines <= 0:
		return NewRegistry()
	case lines > 1 && PossibleCRPs(lines) <= maxDensePairs:
		return &Registry{span: lines, lines: lines, npairs: PossibleCRPs(lines), planes: make(map[int][]uint64)}
	}
	return &Registry{span: min(lines, maxLines), used: make(map[uint64]struct{})}
}

// addr canonicalises b and reports whether the registry can
// address it.
func (reg *Registry) addr(b PairBit) (pairKey, bool) {
	k := canonical(b)
	return k, k.lo >= 0 && k.lo < k.hi && k.hi < reg.span && k.vdd >= 0 && k.vdd < maxVddMV
}

// word packs an addressable canonical pair into its sparse key. Each
// field fits its lane, so distinct pairs get distinct words.
func word(k pairKey) uint64 {
	return uint64(k.vdd)<<(2*coordBits) | uint64(k.lo)<<coordBits | uint64(k.hi)
}

// pairIndexLocked maps the canonical pair lo < hi onto its triangular-number
// index in [0, lines*(lines-1)/2).
func (reg *Registry) pairIndexLocked(lo, hi int) uint64 {
	l, h, n := uint64(lo), uint64(hi), uint64(reg.lines)
	return l*n - l*(l+1)/2 + h - l - 1
}

// planeLocked returns (allocating lazily) the bitset of one voltage
// plane. Callers hold reg.mu.
func (reg *Registry) planeLocked(vdd int) []uint64 {
	p, ok := reg.planes[vdd]
	if !ok {
		p = make([]uint64, (reg.npairs+63)/64)
		reg.planes[vdd] = p
	}
	return p
}

// burnLocked probes and marks one addressable pair in a single step,
// reporting whether it was free. The sparse form detects a burned pair
// by the map not growing, so the probe is the assignment itself.
// Callers hold reg.mu.
func (reg *Registry) burnLocked(k pairKey) bool {
	if reg.used != nil {
		n := len(reg.used)
		reg.used[word(k)] = struct{}{}
		return len(reg.used) > n
	}
	idx := reg.pairIndexLocked(k.lo, k.hi)
	p := reg.planeLocked(k.vdd)
	w, mask := idx/64, uint64(1)<<(idx%64)
	if p[w]&mask != 0 {
		return false
	}
	p[w] |= mask
	reg.count++
	return true
}

// unburnLocked releases pairs that burnLocked consumed. Callers hold
// reg.mu.
func (reg *Registry) unburnLocked(pairs []PairBit) {
	for _, b := range pairs {
		k, ok := reg.addr(b)
		if !ok {
			continue
		}
		if reg.used != nil {
			delete(reg.used, word(k))
			continue
		}
		idx := reg.pairIndexLocked(k.lo, k.hi)
		reg.planes[k.vdd][idx/64] &^= uint64(1) << (idx % 64)
		reg.count--
	}
}

// usedLocked reports whether an addressable pair is burned. Callers
// hold reg.mu.
func (reg *Registry) usedLocked(k pairKey) bool {
	if reg.used != nil {
		_, ok := reg.used[word(k)]
		return ok
	}
	idx := reg.pairIndexLocked(k.lo, k.hi)
	p, ok := reg.planes[k.vdd]
	return ok && p[idx/64]&(1<<(idx%64)) != 0
}

// Used reports the number of consumed pairs.
func (reg *Registry) Used() int {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if reg.used != nil {
		return len(reg.used)
	}
	return reg.count
}

// Burn atomically checks that one pair (in either orientation) is free
// and marks it consumed. It returns false, changing nothing, if the
// pair was consumed before or is out of range. An issuer burns each
// pair as it draws it, so a pair repeated within one challenge is just
// a failed burn.
func (reg *Registry) Burn(b PairBit) bool {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	k, ok := reg.addr(b)
	return ok && reg.burnLocked(k)
}

// Unburn releases pairs that Burn accepted, for an issuer abandoning a
// half-drawn challenge. Releasing a pair Burn refused would free an
// earlier burn; callers pass only their own.
func (reg *Registry) Unburn(pairs []PairBit) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	reg.unburnLocked(pairs)
}

// Consume atomically checks that none of the challenge's pairs have
// been used and marks them all used. If any pair (in either
// orientation) was already consumed — including a challenge reusing
// its own pair internally, which is as replayable as reusing a past
// one — or is out of range, nothing is marked and the method returns
// false.
func (reg *Registry) Consume(c *Challenge) bool {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	for i, b := range c.Bits {
		if k, ok := reg.addr(b); !ok || !reg.burnLocked(k) {
			reg.unburnLocked(c.Bits[:i])
			return false
		}
	}
	return true
}

// Mark force-records pairs as consumed without the no-reuse check.
// Journal replay uses it: a replayed burn may overlap pairs the
// snapshot already holds, and re-marking a consumed pair is the
// idempotent direction (a pair can only ever become *more* dead).
// Out-of-range pairs are skipped.
func (reg *Registry) Mark(pairs []PairBit) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	for _, b := range pairs {
		if k, ok := reg.addr(b); ok {
			reg.burnLocked(k)
		}
	}
}

// IsUsed reports whether the pair of a single bit was consumed before.
func (reg *Registry) IsUsed(b PairBit) bool {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	k, ok := reg.addr(b)
	return ok && reg.usedLocked(k)
}

// Probe reports whether a pair could be burned now — in range and not
// consumed — without marking it, together with its key: two bits name
// the same pair exactly when their keys are equal. A follower samples
// against its read-only replica with it.
func (reg *Registry) Probe(b PairBit) (key uint64, free bool) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	k, ok := reg.addr(b)
	return word(k), ok && !reg.usedLocked(k)
}

// Export returns the consumed pairs in canonical orientation, for
// persisting an authentication server's state. Order is unspecified.
func (reg *Registry) Export() []PairBit {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if reg.used != nil {
		const lane = maxLines - 1
		out := make([]PairBit, 0, len(reg.used))
		for w := range reg.used {
			out = append(out, PairBit{A: int(w >> coordBits & lane), B: int(w & lane), VddMV: int(w >> (2 * coordBits))})
		}
		return out
	}
	// Walk rows in triangular order: consecutive idx values are
	// (lo,lo+1), (lo,lo+2), ..., then the next lo. Whole zero words
	// are skipped in one hop.
	out := make([]PairBit, 0, reg.count)
	for vdd, p := range reg.planes {
		idx := uint64(0)
		for lo := 0; lo < reg.lines-1; lo++ {
			for hi := lo + 1; hi < reg.lines; {
				if idx%64 == 0 && hi+64 <= reg.lines && p[idx/64] == 0 {
					idx += 64
					hi += 64
					continue
				}
				if p[idx/64]&(1<<(idx%64)) != 0 {
					out = append(out, PairBit{A: lo, B: hi, VddMV: vdd})
				}
				idx++
				hi++
			}
		}
	}
	return out
}

// RestoreRegistry rebuilds a sparse registry from exported pairs.
func RestoreRegistry(pairs []PairBit) *Registry {
	reg := NewRegistry()
	reg.Mark(pairs)
	return reg
}

// RestoreRegistryLines rebuilds a registry from exported pairs with a
// known geometry, so restoration keeps the dense representation.
func RestoreRegistryLines(lines int, pairs []PairBit) *Registry {
	reg := NewRegistryLines(lines)
	reg.Mark(pairs)
	return reg
}
