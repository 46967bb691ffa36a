package crp

import (
	"runtime"
	"testing"

	"repro/internal/rng"
)

// hostileCoord mostly returns a line inside the denseLines geometry and
// sometimes one just outside it on either side.
func hostileCoord(r *rng.Rand) int {
	switch r.Intn(10) {
	case 0:
		return -1 - r.Intn(3)
	case 1:
		return denseLines + r.Intn(3)
	}
	return r.Intn(denseLines)
}

// TestBurnSparseDenseEquivalence drives Burn, Unburn and Consume on
// both representations over the same geometry with draws an issuer
// must refuse — repeats within a challenge in either orientation,
// lo == hi, negative coordinates and coordinates ≥ lines — and checks
// that every answer, Used count, probe and the final Export agree.
func TestBurnSparseDenseEquivalence(t *testing.T) {
	r := rng.New(11)
	dense := NewRegistryLines(denseLines)
	sparse := &Registry{span: denseLines, used: make(map[uint64]struct{})}
	vdds := []int{640, 680}

	for step := 0; step < 600; step++ {
		bits := make([]PairBit, 1+r.Intn(16))
		for i := range bits {
			switch {
			case i > 0 && r.Intn(5) == 0:
				prev := bits[r.Intn(i)]
				bits[i] = PairBit{A: prev.B, B: prev.A, VddMV: prev.VddMV}
			case r.Intn(10) == 0:
				a := hostileCoord(r)
				bits[i] = PairBit{A: a, B: a, VddMV: vdds[r.Intn(len(vdds))]}
			default:
				bits[i] = PairBit{A: hostileCoord(r), B: hostileCoord(r), VddMV: vdds[r.Intn(len(vdds))]}
			}
		}
		if step%4 == 0 {
			c := &Challenge{Bits: bits}
			if d, s := dense.Consume(c), sparse.Consume(c); d != s {
				t.Fatalf("step %d: Consume diverged: dense=%v sparse=%v for %+v", step, d, s, bits)
			}
		} else {
			var burned []PairBit
			for _, b := range bits {
				d, s := dense.Burn(b), sparse.Burn(b)
				if d != s {
					t.Fatalf("step %d: Burn(%+v) diverged: dense=%v sparse=%v", step, b, d, s)
				}
				if d {
					burned = append(burned, b)
				}
			}
			// An issuer that runs out of pairs rolls its burns back.
			if step%4 == 3 {
				dense.Unburn(burned)
				sparse.Unburn(burned)
			}
		}
		if d, s := dense.Used(), sparse.Used(); d != s {
			t.Fatalf("step %d: Used diverged: dense=%d sparse=%d", step, d, s)
		}
		for i := 0; i < 8; i++ {
			b := PairBit{A: hostileCoord(r), B: hostileCoord(r), VddMV: vdds[r.Intn(len(vdds))]}
			flipped := PairBit{A: b.B, B: b.A, VddMV: b.VddMV}
			dk, df := dense.Probe(b)
			sk, sf := sparse.Probe(flipped)
			if df != sf || dense.IsUsed(b) != sparse.IsUsed(flipped) {
				t.Fatalf("step %d: probe of %+v diverged: dense free=%v sparse free=%v", step, b, df, sf)
			}
			if df && dk != sk {
				t.Fatalf("step %d: %+v and its flip got different keys %#x, %#x", step, b, dk, sk)
			}
		}
	}

	de, se := dense.Export(), sparse.Export()
	sortPairs(de)
	sortPairs(se)
	if len(de) != len(se) {
		t.Fatalf("Export length diverged: dense=%d sparse=%d", len(de), len(se))
	}
	for i := range de {
		if de[i] != se[i] {
			t.Fatalf("Export[%d] diverged: dense=%+v sparse=%+v", i, de[i], se[i])
		}
	}
}

// A sparse key never aliases: pairs that differ only in a field's top
// in-range bit, or at the voltage limit, stay distinct, and a voltage
// past the key's lane is refused rather than wrapped onto another.
func TestSparseKeyLanes(t *testing.T) {
	reg := NewRegistryLines(16384)
	top := 16383
	pairs := []PairBit{
		{A: 0, B: top, VddMV: 0},
		{A: top - 1, B: top, VddMV: 0},
		{A: 0, B: 1, VddMV: maxVddMV - 1},
		{A: 0, B: top, VddMV: maxVddMV - 1},
	}
	for _, p := range pairs {
		if !reg.Burn(p) {
			t.Fatalf("fresh pair %+v refused", p)
		}
	}
	for _, p := range []PairBit{
		{A: 0, B: 1, VddMV: maxVddMV},
		{A: 0, B: 1, VddMV: -1},
		{A: 0, B: 16384, VddMV: 680},
	} {
		if reg.Burn(p) {
			t.Fatalf("out-of-range pair %+v burned", p)
		}
	}
	if got := reg.Used(); got != len(pairs) {
		t.Fatalf("Used=%d, want %d", got, len(pairs))
	}
}

// TestSparseExportRestoreRoundTrip is the snapshot path at the authd
// default geometry, where the registry is the sparse map.
func TestSparseExportRestoreRoundTrip(t *testing.T) {
	const lines = 16384
	r := rng.New(5)
	reg := NewRegistryLines(lines)
	if reg.used == nil {
		t.Fatalf("NewRegistryLines(%d): want the sparse form", lines)
	}
	for reg.Used() < 3000 {
		a, b := r.Intn(lines), r.Intn(lines)
		reg.Burn(PairBit{A: a, B: b, VddMV: 600 + 20*r.Intn(6)})
	}
	exported := reg.Export()
	restored := RestoreRegistryLines(lines, exported)
	if got, want := restored.Used(), reg.Used(); got != want {
		t.Fatalf("restored Used=%d, want %d", got, want)
	}
	for _, p := range exported {
		if p.A >= p.B {
			t.Fatalf("exported pair %+v not canonical", p)
		}
		if !restored.IsUsed(p) || restored.Burn(PairBit{A: p.B, B: p.A, VddMV: p.VddMV}) {
			t.Fatalf("restored registry lost pair %+v", p)
		}
	}
	again := restored.Export()
	sortPairs(exported)
	sortPairs(again)
	for i := range exported {
		if exported[i] != again[i] {
			t.Fatalf("re-export[%d] = %+v, want %+v", i, again[i], exported[i])
		}
	}
}

// BenchmarkRegistryBurn burns 128-pair challenges into a 16384-line
// (sparse) registry pre-filled with 3072 pairs, the per-device fill of
// a 1024-device fleet after half a minute of load. Each op draws pairs
// and burns them until 128 stick, as issuance does. The registry is
// refilled once it has doubled, so map growth is charged at its
// amortized rate. It reports ns per burned pair and the live heap per
// consumed pair.
func BenchmarkRegistryBurn(b *testing.B) {
	const lines, bits, prefill, headroom = 16384, 128, 3072, 3072
	r := rng.New(1)
	draw := func() PairBit {
		a, c := r.Intn(lines), r.Intn(lines)
		for c == a {
			c = r.Intn(lines)
		}
		return PairBit{A: a, B: c, VddMV: 680}
	}
	fill := func() *Registry {
		reg := NewRegistryLines(lines)
		for reg.Used() < prefill {
			reg.Burn(draw())
		}
		return reg
	}

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	reg := fill()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	heapPerPair := float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / prefill

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if reg.Used()+bits > prefill+headroom {
			b.StopTimer()
			reg = fill()
			b.StartTimer()
		}
		for n := 0; n < bits; {
			if reg.Burn(draw()) {
				n++
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bits), "ns/pair")
	b.ReportMetric(heapPerPair, "heapB/pair")
}
