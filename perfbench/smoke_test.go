package main

import (
	"encoding/json"
	"os"
	"testing"
)

// smokeOptions shrinks a run to seconds: a small fleet on a small
// cache, one set-up, short phases, traced so every metric is computed.
func smokeOptions(o options) options {
	o.w.Devices = min(o.w.Devices, 64)
	o.w.Lines = 2048
	o.w.Rate = 200
	o.seconds = 1
	o.setups, o.maxSetups = 1, 1
	o.trace = true
	return o
}

// TestSmokeEmitsEveryMetric runs every workload in smoke mode and
// checks that each end-to-end and per-layer metric is reported with
// its unit and that the correctness gates pass.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the system for every workload")
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := run(smokeOptions(options{w: w, seed: 7, dir: t.TempDir()}))
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct() {
				t.Errorf("gates failed: %v", res.violations)
			}
			for _, spec := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
				m, ok := res.metrics[spec.name]
				if !ok {
					t.Errorf("metric %s missing", spec.name)
					continue
				}
				if m.Unit != spec.unit {
					t.Errorf("metric %s has unit %q, want %q", spec.name, m.Unit, spec.unit)
				}
			}
			if res.attempted == 0 {
				t.Error("no operations attempted")
			}
		})
	}
}

// TestClientMovesOffConnectionBeforeBudget runs more transactions
// through one client than the server's per-connection budget allows
// and checks that none needed a retry: the client moved to a fresh
// connection before the server would have hung up.
func TestClientMovesOffConnectionBeforeBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the system")
	}
	w := workloads[0]
	w.Devices, w.Lines, w.ImpostorFrac = 8, 2048, 0
	sys, err := startSystem(w, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	h, err := newHarness(sys, w, makeFleet(w, 3), 3, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	var tl tally
	ln := h.lanes[0]
	for i := 0; i < 1100; i++ {
		ln.op(&tl)
	}
	if n := tl.failed(); n > 0 {
		t.Errorf("%d operations failed: %v", n, tl.topErrors(3))
	}
	if st := h.retryStats(); st.Retries > 0 {
		t.Errorf("%d attempts retried; the server hung up on a connection", st.Retries)
	}
	if n := len(h.clients[0].all); n < 2 {
		t.Errorf("client used %d connection(s) for 1100 transactions", n)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, which declares the
// benchmark's metrics and workloads, in step with this program.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type spec struct {
		Name, Unit, Better string
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []spec `json:"end_to_end"`
		PerLayer  []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []spec, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, bj.Workloads[i].Name, w.Name)
		}
	}
}
