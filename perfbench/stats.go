package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// percentile returns the q-quantile (0 < q <= 1) of xs by nearest
// rank: the smallest sample with at least q·n samples at or below it.
// xs is sorted in place. An empty slice yields 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q*float64(len(xs)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(xs) {
		rank = len(xs) - 1
	}
	return xs[rank]
}

// openSample is one scheduled request of the fixed-rate phase.
type openSample struct {
	due time.Time // when the schedule said to send
	// ready is the later of due and the moment the lane finished its
	// previous request: the earliest the generator could have sent.
	ready time.Time
	sent  time.Time // when the generator actually sent
	done  time.Time // when the transaction returned
	ok    bool      // the transaction reached its expected outcome
}

// latency is the request's time from its scheduled send to its
// completion, so a stall that delays later sends is charged to them.
func (s openSample) latency() time.Duration { return s.done.Sub(s.due) }

// lateness is how long the generator itself took to send once it
// could: a lane blocked behind a slow request is the system's delay,
// already charged to latency through the due time.
func (s openSample) lateness() time.Duration {
	if d := s.sent.Sub(s.ready); d > 0 {
		return d
	}
	return 0
}

// sloFraction is the share of scheduled requests that completed with
// their expected outcome within limit; a failed request is a miss
// whatever its latency.
func sloFraction(samples []openSample, limit time.Duration) float64 {
	if len(samples) == 0 {
		return 0
	}
	met := 0
	for _, s := range samples {
		if s.ok && s.latency() <= limit {
			met++
		}
	}
	return float64(met) / float64(len(samples))
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// recorder collects durations from concurrent callers. It keeps every
// sample so percentiles are exact; a run records at most a few hundred
// thousand.
type recorder struct {
	mu    sync.Mutex
	us    []float64
	total time.Duration
}

func (r *recorder) add(d time.Duration) {
	r.mu.Lock()
	r.us = append(r.us, float64(d)/float64(time.Microsecond))
	r.total += d
	r.mu.Unlock()
}

// snapshot returns a copy of the samples (µs) and their summed time.
func (r *recorder) snapshot() ([]float64, time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.us...), r.total
}

// p returns the q-quantile of the recorded samples in µs.
func (r *recorder) p(q float64) float64 {
	us, _ := r.snapshot()
	return percentile(us, q)
}

func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.us)
}
