package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

// A run sets the system up at least minSetups times and, while the
// set-ups together take less than setupBudget, up to maxSetups times;
// setup_s is their median and the last one is measured.
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = 3 * time.Second
)

// openShare is the part of a run's seconds given to the fixed-rate
// phase; the closed loop gets the rest. leadSeconds of untimed
// fixed-rate traffic precede it.
const (
	openShare   = 0.5
	leadSeconds = 1.5
)

type options struct {
	w       workload
	seed    uint64
	seconds float64
	trace   bool
	dir     string
	// setups and maxSetups bound the set-up repetitions.
	setups, maxSetups int
}

type result struct {
	metrics    map[string]metric
	violations []string
	attempted  int64
	failed     int64
	notes      []string
	provenance provenance
}

func (r *result) correct() bool { return len(r.violations) == 0 }

func (r *result) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// run executes one workload run: set-ups, the fixed-rate phase, the
// closed-loop phase, quiesce and the correctness gates.
func run(o options) (*result, error) {
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, err
	}
	f := makeFleet(o.w, o.seed)
	conns := min(maxConns, runtime.GOMAXPROCS(0))
	res := &result{metrics: map[string]metric{}, provenance: hostProvenance(o, conns)}
	var tr *tracer
	if o.trace {
		tr = &tracer{}
	}

	var (
		sys     *system
		h       *harness
		warm    *tally
		setupS  []float64
		prevDir string
	)
	var setupTotal time.Duration
	for i := 0; i < o.setups || (i < o.maxSetups && setupTotal < setupBudget); i++ {
		if sys != nil {
			h.close()
			if err := sys.close(); err != nil {
				return nil, fmt.Errorf("tear down set-up %d: %w", i, err)
			}
			if err := os.RemoveAll(prevDir); err != nil {
				return nil, err
			}
			runtime.GC()
		}
		prevDir = filepath.Join(o.dir, fmt.Sprintf("setup-%d", i))
		warm = &tally{}
		t0 := time.Now()
		var err error
		sys, h, err = setUp(o, f, prevDir, conns, warm, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		el := time.Since(t0)
		setupTotal += el
		setupS = append(setupS, el.Seconds())
	}
	defer sys.close()
	defer h.close()
	res.provenance.Setups = len(setupS)
	res.set("setup_s", percentile(append([]float64(nil), setupS...), 0.5), "s")

	openN := int(o.w.Rate * o.seconds * openShare)
	closedDur := time.Duration(o.seconds * (1 - openShare) * float64(time.Second))
	var in layerInputs
	traced := func(t *tally, phase func()) {
		if tr == nil {
			phase()
			return
		}
		tr.on.Store(true)
		issued0, retries0 := sys.stats().Issued, h.retryStats().Retries
		a0, n0 := t.attempted(), t.auths.Load()
		phase()
		tr.on.Store(false)
		in.issued += sys.stats().Issued - issued0
		in.retries += int64(h.retryStats().Retries - retries0)
		in.ops += t.attempted() - a0
		in.auths += t.auths.Load() - n0
	}

	// Fixed rate first, on the freshly set-up system: latency at a load
	// the system can carry, and the heap after a fixed operation count.
	// An untimed stretch at the same rate comes first, so the timed
	// phase starts in the steady state rather than on the set-up's
	// heels; a full collection then starts it on a fresh GC cycle.
	var lead tally
	h.openLoop(&lead, o.w.Rate, int(o.w.Rate*leadSeconds))
	heapBefore := liveHeap()
	var open tally
	var samples []openSample
	stopLag := sampleLag(sys)
	gc0 := gcStats()
	traced(&open, func() { samples = h.openLoop(&open, o.w.Rate, openN) })
	gc1 := gcStats()
	heapAfter, heapInuse := liveHeapInuse()
	res.notes = append(res.notes, fmt.Sprintf("open: %d garbage collections, %.1f ms of pauses",
		gc1.NumGC-gc0.NumGC, float64(gc1.PauseTotalNs-gc0.PauseTotalNs)/1e6))
	openMetrics(res, samples, o.w)
	res.set("heap_mib", float64(heapInuse)/(1<<20), "MiB")
	if tr != nil {
		splitMetrics(res, tr, samples, heapAfter-heapBefore)
	}

	// Closed loop: capacity. A traced run alternates untraced and
	// traced slices, so both see the same system state on average, and
	// compares their totals. Both kinds of slice run with the wrappers
	// installed, so tracing.overhead is the cost of recording only.
	var closed, untraced tally
	var span window
	if tr == nil {
		span = h.closedLoop(&closed, closedDur)
	} else {
		const slices = 4
		var off window
		for i := 0; i < slices; i++ {
			off = off.plus(h.closedLoop(&untraced, closedDur/(2*slices)))
			traced(&closed, func() { span = span.plus(h.closedLoop(&closed, closedDur/(2*slices))) })
		}
		res.set("tracing.overhead", off.rate()/span.rate(), "ratio")
	}
	in.lagMax = stopLag()
	res.set("closed_ops_per_s", span.rate(), "ops/s")
	res.set("cpu_us_per_op", float64(span.cpu)/float64(time.Microsecond)/float64(max(span.ok, 1)), "us")
	res.set("client.fail_frac", ratio(closed.genuineFailed.Load()+open.genuineFailed.Load(),
		closed.genuine.Load()+open.genuine.Load()), "fraction")
	if tr != nil {
		layerMetrics(res, tr, in)
	}

	// Quiesce, then the gates.
	final := &tally{}
	var finalFails, recoveries int64
	if o.w.RemapEvery > 0 {
		finalFails, recoveries = h.finalCheck(final)
	}
	gaps := sys.replicaGaps(10 * time.Second)
	phases := []*tally{warm, &lead, &untraced, &closed, &open, final}
	// Every failed attempt, whether retried or final, may hide one
	// server accept whose verdict never arrived.
	rs := h.retryStats()
	g := gateCounts{ServerAccepts: sys.stats().Accepted, ReplicaGaps: gaps, FinalAuthFailures: finalFails, Failures: int64(rs.Retries)}
	for _, t := range phases {
		g.ImpostorAccepts += t.impostorAccepted.Load()
		g.ConfirmMismatches += t.confirmMismatch.Load()
		g.ClientAccepts += t.accepts.Load()
		g.Failures += t.failed()
	}
	res.violations = g.violations()
	res.attempted = closed.attempted() + open.attempted()
	res.failed = closed.failed() + open.failed()

	res.notes = append(res.notes,
		fmt.Sprintf("setup_s samples %v; peak resident memory %s", setupS, peakRSS()),
		fmt.Sprintf("closed: %d attempted, %d ok, %d failed, %.0f ops/s; open: %d scheduled, %d failed; client attempts %d, retries %d, connections dialled %d",
			closed.attempted(), closed.ok.Load(), closed.failed(), span.rate(), len(samples), open.failed(), rs.Attempts, rs.Retries, rs.Reconnects),
		fmt.Sprintf("gates: client accepts %d, server accepts %d, impostors %d (accepted %d), final-check failures %d after %d recovery key updates",
			g.ClientAccepts, g.ServerAccepts, closed.impostor.Load()+open.impostor.Load(), g.ImpostorAccepts, finalFails, recoveries))
	for _, t := range phases {
		for _, e := range t.topErrors(4) {
			res.notes = append(res.notes, "error "+e)
		}
	}
	return res, nil
}

// setUp starts the system, enrolls the fleet, waits until every
// follower holds the whole fleet (an enrollment returns once one
// follower has it), so the measured phases start on a quiesced
// cluster, then warms every device once.
func setUp(o options, f fleet, dir string, conns int, warm *tally, tr *tracer) (*system, *harness, error) {
	sys, err := startSystem(o.w, dir, tr)
	if err != nil {
		return nil, nil, err
	}
	h, err := newHarness(sys, o.w, f, o.seed, conns, tr)
	if err == nil {
		if gaps := sys.replicaGaps(10 * time.Second); len(gaps) > 0 {
			err = fmt.Errorf("replicas did not catch up: %v", gaps)
		}
	}
	if err == nil {
		err = h.warm(warm)
	}
	if err != nil {
		if h != nil {
			h.close()
		}
		sys.close()
		return nil, nil, err
	}
	return sys, h, nil
}

// openMetrics reports the fixed-rate phase: the median and p99 latency
// of its successful requests, and the share meeting the latency limit.
func openMetrics(res *result, samples []openSample, w workload) {
	var okMS []float64
	for _, s := range samples {
		if s.ok {
			okMS = append(okMS, float64(s.latency())/float64(time.Millisecond))
		}
	}
	res.set("open_p50_ms", percentile(okMS, 0.50), "ms")
	res.set("open_p99_ms", percentile(okMS, 0.99), "ms")
	res.set("open_slo_frac", sloFraction(samples, w.Limit), "fraction")
	res.notes = append(res.notes, fmt.Sprintf("open: %d scheduled, %d successful samples behind p50/p99", len(samples), len(okMS)))
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcStats reads the collector's counters without forcing a cycle.
func gcStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// liveHeap is the live heap after a full collection.
func liveHeap() int64 {
	live, _ := liveHeapInuse()
	return live
}

func liveHeapInuse() (live int64, inuse uint64) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc), ms.HeapInuse
}

// sampleLag records the largest follower lag every 5 ms until the
// returned stop function is called, which returns the maximum.
func sampleLag(s *system) func() uint64 {
	if len(s.nodes) < 2 {
		return func() uint64 { return 0 }
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var maxLag uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				maxLag = max(maxLag, s.maxLag())
			}
		}
	}()
	return func() uint64 {
		close(stop)
		wg.Wait()
		return maxLag
	}
}

// peakRSS reads the process's peak resident set size.
func peakRSS() string {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// filesystemOf names the filesystem type holding dir.
func filesystemOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xef53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}
