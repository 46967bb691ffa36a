// Package mapkey implements the keyed logical remapping of physical
// error locations (paper Sections 4.3–4.5).
//
// Authenticache never exposes physical cache-line addresses in
// challenges: the server and client share a key K and both apply a
// keyed pseudo-random permutation between physical line indices and
// "logical" positions. An attacker observing challenges learns only
// logical coordinates; without K the physical error layout — and hence
// the chip's low-voltage profile — stays hidden, and periodically
// rotating K (the adaptive remap protocol) invalidates any model an
// attacker has trained.
//
// The permutation is a 4-round Feistel network over the index space
// [0, n), using HMAC-SHA256 as the round function, with cycle walking
// to stay inside the domain when n is not a power of four. This is the
// standard generic-domain format-preserving construction: a bijection
// for any n, invertible with the key, and computable in O(1) per
// index.
package mapkey

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
)

// Key is a 256-bit remapping key.
type Key [32]byte

// KeyFromBytes builds a Key from arbitrary secret material by hashing,
// so callers can feed fuzzy-extractor output of any length.
func KeyFromBytes(material []byte, label string) Key {
	mac := hmac.New(sha256.New, material)
	mac.Write([]byte("authenticache/mapkey/v1/"))
	mac.Write([]byte(label))
	var k Key
	copy(k[:], mac.Sum(nil))
	return k
}

// Permutation is a keyed bijection on [0, n).
//
// A Permutation memoizes its Feistel round functions on first use
// (the round-function domain is only 2^(halfBits) values, a few
// hundred entries for realistic cache sizes), so Map and Unmap are
// table lookups after warm-up. The memo makes a Permutation unsafe
// for unsynchronised concurrent use; callers that share one across
// goroutines must hold their own lock (the auth server keeps
// permutations inside per-client records guarded by the record lock).
type Permutation struct {
	n         uint64
	halfBits  uint
	halfMask  uint64
	rounds    int
	roundKeys [][32]byte
	// memo[r][half] caches roundF(r, half); built lazily per round on
	// first use. Index r is nil until then.
	memo [][]uint64
}

// feistelRounds is fixed at 4: the minimum for a strong pseudo-random
// permutation from pseudo-random round functions (Luby-Rackoff).
const feistelRounds = 4

// NewPermutation builds the keyed permutation over [0, n). It panics
// if n < 2 (a domain with fewer than two elements cannot hide
// anything).
func NewPermutation(key Key, n int) *Permutation {
	if n < 2 {
		panic(fmt.Sprintf("mapkey: domain size %d too small", n))
	}
	// Find the smallest even bit width covering n-1, so both Feistel
	// halves are equal width and the walking domain is < 4n.
	bits := uint(1)
	for (uint64(1) << bits) < uint64(n) {
		bits++
	}
	if bits%2 == 1 {
		bits++
	}
	p := &Permutation{
		n:        uint64(n),
		halfBits: bits / 2,
		halfMask: (uint64(1) << (bits / 2)) - 1,
		rounds:   feistelRounds,
		memo:     make([][]uint64, feistelRounds),
	}
	for r := 0; r < p.rounds; r++ {
		mac := hmac.New(sha256.New, key[:])
		var rk [8]byte
		binary.LittleEndian.PutUint64(rk[:], uint64(r))
		mac.Write([]byte("round"))
		mac.Write(rk[:])
		var out [32]byte
		copy(out[:], mac.Sum(nil))
		p.roundKeys = append(p.roundKeys, out)
	}
	return p
}

// Domain returns n, the size of the permuted index space.
func (p *Permutation) Domain() int { return int(p.n) }

// maxMemoHalfBits bounds the memoized round-table size (2^halfBits
// entries per round); beyond it roundF falls back to computing the
// HMAC per call. 2^16 entries x 4 rounds is 2 MB — far above any
// realistic cache geometry, present only as an allocation guard.
const maxMemoHalfBits = 16

// roundF is the Feistel round function: HMAC-SHA256(roundKey, half)
// truncated to halfBits. The per-round table is built on the round's
// first use; afterwards roundF is a slice index.
func (p *Permutation) roundF(round int, half uint64) uint64 {
	if t := p.memo[round]; t != nil {
		return t[half]
	}
	mac := hmac.New(sha256.New, p.roundKeys[round][:])
	buf := make([]byte, sha256.Size)
	if p.halfBits > maxMemoHalfBits {
		return roundMAC(mac, buf, half) & p.halfMask
	}
	// One HMAC instance and buffer, reset per entry, build the table.
	t := make([]uint64, p.halfMask+1)
	for h := range t {
		t[h] = roundMAC(mac, buf, uint64(h)) & p.halfMask
	}
	p.memo[round] = t
	return t[half]
}

// roundMAC resets mac and returns the first 8 bytes of its MAC over
// half as a little-endian word. buf (sha256.Size bytes) is scratch.
func roundMAC(mac hash.Hash, buf []byte, half uint64) uint64 {
	mac.Reset()
	binary.LittleEndian.PutUint64(buf, half)
	mac.Write(buf[:8])
	return binary.LittleEndian.Uint64(mac.Sum(buf[:0]))
}

// encryptOnce runs one pass of the Feistel network over the padded
// domain [0, 2^(2*halfBits)).
func (p *Permutation) encryptOnce(x uint64) uint64 {
	l := x >> p.halfBits
	r := x & p.halfMask
	for round := 0; round < p.rounds; round++ {
		l, r = r, l^p.roundF(round, r)
	}
	return l<<p.halfBits | r
}

func (p *Permutation) decryptOnce(x uint64) uint64 {
	l := x >> p.halfBits
	r := x & p.halfMask
	for round := p.rounds - 1; round >= 0; round-- {
		l, r = r^p.roundF(round, l), l
	}
	return l<<p.halfBits | r
}

// Map sends a physical index to its logical position. It panics on an
// out-of-domain index. Cycle walking guarantees the result is in
// [0, n); the padded domain is < 4n, so the expected walk length is
// under 4 steps.
func (p *Permutation) Map(physical int) int {
	if physical < 0 || uint64(physical) >= p.n {
		panic(fmt.Sprintf("mapkey: index %d outside domain [0,%d)", physical, p.n))
	}
	x := uint64(physical)
	for {
		x = p.encryptOnce(x)
		if x < p.n {
			return int(x)
		}
	}
}

// Unmap sends a logical position back to its physical index.
func (p *Permutation) Unmap(logical int) int {
	if logical < 0 || uint64(logical) >= p.n {
		panic(fmt.Sprintf("mapkey: index %d outside domain [0,%d)", logical, p.n))
	}
	x := uint64(logical)
	for {
		x = p.decryptOnce(x)
		if x < p.n {
			return int(x)
		}
	}
}

// DeriveSubkey derives an independent key for a purpose label, used to
// give each voltage plane its own permutation from one master key.
func DeriveSubkey(master Key, label string) Key {
	return KeyFromBytes(master[:], label)
}

// PlaneKey returns the per-voltage-plane remapping key for the plane
// measured at vddMV millivolts.
func PlaneKey(master Key, vddMV int) Key {
	return DeriveSubkey(master, fmt.Sprintf("plane/%dmV", vddMV))
}
