package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, tc := range []struct {
		q    float64
		want float64
	}{
		{0.01, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.51, 6}, {0.9, 9}, {0.99, 10}, {1, 10},
	} {
		if got := percentile(append([]float64(nil), xs...), tc.q); got != tc.want {
			t.Errorf("percentile(q=%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	// p99 of 1000 samples leaves exactly ten samples above it.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := percentile(big, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
}

func TestLateness(t *testing.T) {
	t0 := time.Unix(100, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	for _, tc := range []struct {
		name             string
		due, ready, sent time.Time
		want             time.Duration
	}{
		{"on time", at(0), at(0), at(0), 0},
		{"sent early is not negative", at(5), at(5), at(4), 0},
		{"generator late", at(0), at(0), at(3), 3 * time.Millisecond},
		// The lane was busy until 10 ms and sent at 11 ms: only the
		// last millisecond is the generator's.
		{"blocked lane", at(0), at(10), at(11), time.Millisecond},
	} {
		s := openSample{due: tc.due, ready: tc.ready, sent: tc.sent, done: tc.sent.Add(time.Millisecond)}
		if got := s.lateness(); got != tc.want {
			t.Errorf("%s: lateness = %v, want %v", tc.name, got, tc.want)
		}
	}
	// Latency counts from the due time, so the blocked lane's wait is
	// charged to the request.
	s := openSample{due: at(0), ready: at(10), sent: at(11), done: at(13)}
	if got := s.latency(); got != 13*time.Millisecond {
		t.Errorf("latency = %v, want 13ms", got)
	}
}

func TestSLOFraction(t *testing.T) {
	t0 := time.Unix(100, 0)
	mk := func(latMS int, ok bool) openSample {
		return openSample{due: t0, ready: t0, sent: t0, done: t0.Add(time.Duration(latMS) * time.Millisecond), ok: ok}
	}
	samples := []openSample{
		mk(1, true),
		mk(5, true),   // exactly at the limit counts
		mk(6, true),   // over the limit
		mk(1, false),  // fast but failed: a miss
		mk(30, false), // slow and failed
	}
	if got, want := sloFraction(samples, 5*time.Millisecond), 2.0/5; math.Abs(got-want) > 1e-12 {
		t.Errorf("sloFraction = %v, want %v", got, want)
	}
	if got := sloFraction(nil, time.Second); got != 0 {
		t.Errorf("sloFraction of no samples = %v, want 0", got)
	}
}

func TestOpenMetrics(t *testing.T) {
	t0 := time.Unix(100, 0)
	// 2000 requests: 1969 at 1 ms, 30 at 10 ms and one failure. The
	// p99 is the 1980th fastest of the 1999 successes, a 10 ms one.
	var samples []openSample
	for i := 0; i < 2000; i++ {
		lat := 1
		if i >= 1970 {
			lat = 10
		}
		due := t0.Add(time.Duration(i) * time.Millisecond)
		samples = append(samples, openSample{due: due, ready: due, sent: due, done: due.Add(time.Duration(lat) * time.Millisecond), ok: true})
	}
	samples[0].ok = false
	res := &result{metrics: map[string]metric{}}
	openMetrics(res, samples, workload{Limit: 5 * time.Millisecond})
	if got := res.metrics["open_p99_ms"].Value; got != 10 {
		t.Errorf("open_p99_ms = %v, want 10", got)
	}
	if got := res.metrics["open_p50_ms"].Value; got != 1 {
		t.Errorf("open_p50_ms = %v, want 1", got)
	}
	// 30 slow requests and one failure miss the 5 ms limit.
	if got, want := res.metrics["open_slo_frac"].Value, 1969.0/2000; math.Abs(got-want) > 1e-12 {
		t.Errorf("open_slo_frac = %v, want %v", got, want)
	}
}

func TestClosedWindow(t *testing.T) {
	w := window{ok: 300, cpu: 30 * time.Millisecond, dur: time.Second}.
		plus(window{ok: 100, cpu: 10 * time.Millisecond, dur: time.Second})
	if got := w.rate(); got != 200 {
		t.Errorf("rate = %v, want 200", got)
	}
	if w.cpu != 40*time.Millisecond || w.ok != 400 {
		t.Errorf("plus = %+v", w)
	}
}

func TestGatesTrip(t *testing.T) {
	clean := gateCounts{ClientAccepts: 100, ServerAccepts: 103, Failures: 3}
	if v := clean.violations(); len(v) != 0 {
		t.Fatalf("clean counts violate gates: %v", v)
	}
	for _, tc := range []struct {
		name string
		g    gateCounts
		want string
	}{
		{"impostor accepted", gateCounts{ImpostorAccepts: 1, ClientAccepts: 1, ServerAccepts: 1}, "impostor"},
		{"confirm mismatch", gateCounts{ConfirmMismatches: 1}, "session-confirm"},
		{"client saw more accepts", gateCounts{ClientAccepts: 5, ServerAccepts: 4}, "clients saw"},
		{"server gap beyond failures", gateCounts{ClientAccepts: 100, ServerAccepts: 104, Failures: 3}, "never saw"},
		{"replica behind", gateCounts{ReplicaGaps: []string{"node 2 applied 5 < primary commit 9"}}, "replica behind"},
		{"final authentication", gateCounts{FinalAuthFailures: 1}, "final authentication"},
	} {
		v := tc.g.violations()
		if len(v) != 1 || !strings.Contains(v[0], tc.want) {
			t.Errorf("%s: violations = %q, want one mentioning %q", tc.name, v, tc.want)
		}
	}
}
