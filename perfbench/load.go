package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/auth"
	"repro/internal/errormap"
	"repro/internal/rng"
)

// Load shape: conns v2 connections, each shared by streamsPerConn
// lanes. A lane runs one transaction at a time (a pipelined stream)
// and owns a disjoint set of devices, so no simulated device ever runs
// two transactions at once.
const (
	maxConns       = 2
	streamsPerConn = 8
	// txTimeout bounds one client operation, retries included; the
	// retry policy's ten attempts end well before it, and the system's
	// own deadlines (idle timeout, delegation) are left as
	// configured.
	txTimeout = 10 * time.Second
	// impostorMaps is the pool of foreign silicon impostors answer with.
	impostorMaps = 16
)

// device is one enrolled simulated chip and its client-side agent.
type device struct {
	id auth.ClientID
	m  *errormap.Map
	r  *auth.Responder
	// tx counts genuine transactions, so every RemapEvery-th is a key
	// update.
	tx int
	// remapFailed marks a device whose last key update errored, leaving
	// the client unsure which key the server holds.
	remapFailed bool
}

// fleet is the workload's generated input: enrollment maps for every
// device and the foreign maps impostors answer with.
type fleet struct {
	maps      []*errormap.Map
	impostors []*errormap.Map
}

// makeFleet generates the fleet from the workload seed alone.
func makeFleet(w workload, seed uint64) fleet {
	g := errormap.NewGeometry(w.Lines)
	plane := func(r *rng.Rand) *errormap.Map {
		m := errormap.NewMap(g)
		m.AddPlane(authVdd, errormap.RandomPlane(g, w.ErrsPerPlane, r))
		if w.Reserved {
			m.AddPlane(reservedVdd, errormap.RandomPlane(g, w.ErrsPerPlane, r))
		}
		return m
	}
	r := rng.New(seed)
	f := fleet{maps: make([]*errormap.Map, w.Devices)}
	for i := range f.maps {
		f.maps[i] = plane(r)
	}
	ri := rng.New(seed ^ 0x1a9057e5)
	for i := 0; i < impostorMaps; i++ {
		f.impostors = append(f.impostors, plane(ri))
	}
	return f
}

func deviceID(i int) auth.ClientID { return auth.ClientID(fmt.Sprintf("dev-%04d", i)) }

// connBudget is how many transactions a client starts on one
// connection before it moves new ones to a fresh connection and closes
// the old one once its transactions are done. It stays below the
// server's per-connection budget (WireConfig.MaxTransactionsPerConn,
// 1024 by default), leaving room for retries and advised key updates
// on the same connection, so the server never hangs up on a
// connection with streams still open.
const connBudget = 1024 - 64

// client is the v2 connection its lanes share, replaced after
// connBudget transactions. Each connection is an auth.ResilientClient,
// which redials after a hang-up and retries a transaction that failed
// retryably (as Retryable classifies it) with its default backoff. An
// operation fails only when the retry policy gives up or the system
// answers with a final error or verdict.
type client struct {
	addr string
	seed uint64

	mu      sync.Mutex
	cur     *conn
	started int
	all     []*auth.ResilientClient
}

// conn is one connection's ResilientClient and the transactions
// running on it.
type conn struct {
	rc       *auth.ResilientClient
	inflight int
	retired  bool
}

// acquire returns the connection the next transaction runs on.
func (c *client) acquire() *conn {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cur == nil || c.started >= connBudget {
		if c.cur != nil {
			c.retire(c.cur)
		}
		policy := auth.RetryPolicy{Seed: c.seed + uint64(len(c.all)) + 1}
		rc := auth.NewResilientClient(c.addr, policy, func(ctx context.Context, addr string) (*auth.WireClient, error) {
			return auth.DialV2(ctx, addr)
		})
		c.cur = &conn{rc: rc}
		c.all = append(c.all, rc)
		c.started = 0
	}
	c.started++
	c.cur.inflight++
	return c.cur
}

// release ends a transaction started on cn.
func (c *client) release(cn *conn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cn.inflight--
	if cn.retired && cn.inflight == 0 {
		cn.rc.Close()
	}
}

// retire stops new transactions on cn and closes it when idle. Called
// with c.mu held.
func (c *client) retire(cn *conn) {
	cn.retired = true
	if cn.inflight == 0 {
		cn.rc.Close()
	}
}

// stats sums the retry counters of every connection the client used.
func (c *client) stats() auth.RetryStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum auth.RetryStats
	for _, rc := range c.all {
		sum = addRetryStats(sum, rc.Stats())
	}
	return sum
}

func addRetryStats(a, b auth.RetryStats) auth.RetryStats {
	return auth.RetryStats{
		Attempts:    a.Attempts + b.Attempts,
		Retries:     a.Retries + b.Retries,
		Reconnects:  a.Reconnects + b.Reconnects,
		Unavailable: a.Unavailable + b.Unavailable,
	}
}

func (c *client) close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cur != nil {
		c.retire(c.cur)
		c.cur = nil
	}
}

// tally counts one phase's client-observed outcomes.
type tally struct {
	genuine, genuineFailed   atomic.Int64
	impostor, impostorFailed atomic.Int64 // impostorFailed: errored instead of a verdict
	impostorAccepted         atomic.Int64
	confirmMismatch          atomic.Int64
	accepts                  atomic.Int64 // accepted verdicts the clients saw
	auths                    atomic.Int64 // authentication attempts, genuine and impostor
	ok                       atomic.Int64 // genuine operations that succeeded

	mu   sync.Mutex
	errs map[string]int
}

var digits = regexp.MustCompile(`[0-9]+`)

func (t *tally) noteErr(err error) {
	msg := digits.ReplaceAllString(err.Error(), "N")
	t.mu.Lock()
	if t.errs == nil {
		t.errs = make(map[string]int)
	}
	t.errs[msg]++
	t.mu.Unlock()
}

// topErrors lists the most frequent error messages, digits folded.
func (t *tally) topErrors(n int) []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	type kv struct {
		msg string
		n   int
	}
	var all []kv
	for m, c := range t.errs {
		all = append(all, kv{m, c})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].n > all[j].n })
	var out []string
	for i := 0; i < len(all) && i < n; i++ {
		out = append(out, fmt.Sprintf("%d× %s", all[i].n, all[i].msg))
	}
	return out
}

func (t *tally) attempted() int64 { return t.genuine.Load() + t.impostor.Load() }
func (t *tally) failed() int64    { return t.genuineFailed.Load() + t.impostorFailed.Load() }

// lane drives one pipelined stream over its client's connection.
type lane struct {
	cl   *client
	devs []*device
	rnd  *rand.Rand
	w    workload
	imps []*errormap.Map
	tr   *tracer
}

// newDevice builds fresh simulated silicon for m: its field cache
// starts empty, as a real chip holds only the map in use.
func (ln *lane) newDevice(m *errormap.Map) auth.Device {
	var d auth.Device = auth.NewSimDevice(m)
	if ln.tr != nil {
		d = tracedDevice{Device: d, tr: ln.tr}
	}
	return d
}

// op runs one transaction for a uniformly chosen device of the lane
// and reports whether it reached its expected outcome.
func (ln *lane) op(t *tally) bool {
	d := ln.devs[ln.rnd.IntN(len(ln.devs))]
	switch {
	case ln.rnd.Float64() < ln.w.ImpostorFrac:
		return ln.impostor(t, d, ln.imps[ln.rnd.IntN(len(ln.imps))])
	case ln.w.RemapEvery > 0 && d.tx%ln.w.RemapEvery == ln.w.RemapEvery-1:
		d.tx++
		return ln.remap(t, d) == nil
	default:
		d.tx++
		ok, _ := ln.auth(t, d)
		return ok
	}
}

// errRejected reports a genuine device the system turned away.
var errRejected = errors.New("genuine device rejected")

// auth runs one genuine authentication; a rejection is errRejected.
func (ln *lane) auth(t *tally, d *device) (bool, error) {
	ctx, cancel := context.WithTimeout(context.Background(), txTimeout)
	defer cancel()
	t.genuine.Add(1)
	t.auths.Add(1)
	cn := ln.cl.acquire()
	accepted, _, err := cn.rc.AuthenticateSession(ctx, d.r)
	ln.cl.release(cn)
	if accepted {
		t.accepts.Add(1)
	}
	if err == nil && !accepted {
		err = errRejected
	}
	if err != nil {
		if strings.Contains(err.Error(), "confirmation mismatch") {
			t.confirmMismatch.Add(1)
		}
		t.genuineFailed.Add(1)
		t.noteErr(err)
		return false, err
	}
	t.ok.Add(1)
	return true, nil
}

// remap runs one key update. Whatever the outcome, the device gets
// fresh silicon state for the key its client now holds; the old
// device's field cache is dropped with it.
func (ln *lane) remap(t *tally, d *device) error {
	ctx, cancel := context.WithTimeout(context.Background(), txTimeout)
	defer cancel()
	t.genuine.Add(1)
	cn := ln.cl.acquire()
	err := cn.rc.Remap(ctx, d.r)
	ln.cl.release(cn)
	d.r = auth.NewResponder(d.id, ln.newDevice(d.m), d.r.Key())
	d.remapFailed = err != nil
	if err != nil {
		t.genuineFailed.Add(1)
		t.noteErr(err)
		return err
	}
	t.ok.Add(1)
	return nil
}

// impostor has foreign silicon answer under d's identity with d's
// current key; the expected outcome is a rejection.
func (ln *lane) impostor(t *tally, d *device, m *errormap.Map) bool {
	ctx, cancel := context.WithTimeout(context.Background(), txTimeout)
	defer cancel()
	t.impostor.Add(1)
	t.auths.Add(1)
	cn := ln.cl.acquire()
	accepted, err := cn.rc.Authenticate(ctx, auth.NewResponder(d.id, ln.newDevice(m), d.r.Key()))
	ln.cl.release(cn)
	if accepted {
		t.impostorAccepted.Add(1)
		t.accepts.Add(1)
	}
	if err != nil {
		t.impostorFailed.Add(1)
		t.noteErr(err)
		return false
	}
	return true
}

// harness is the load generator for one started system.
type harness struct {
	clients []*client
	lanes   []*lane
}

// newHarness enrolls the fleet (through the enrolling server, so
// clustered enrollments replicate) and builds the lanes.
func newHarness(s *system, w workload, f fleet, seed uint64, conns int, tr *tracer) (*harness, error) {
	h := &harness{}
	for i := 0; i < conns; i++ {
		h.clients = append(h.clients, &client{addr: s.ingress[i%len(s.ingress)], seed: seed<<8 | uint64(i)})
	}
	nLanes := conns * streamsPerConn
	for i := 0; i < nLanes; i++ {
		h.lanes = append(h.lanes, &lane{
			cl:   h.clients[i%conns],
			rnd:  rand.New(rand.NewPCG(seed, uint64(i))),
			w:    w,
			imps: f.impostors,
			tr:   tr,
		})
	}
	devs := make([]*device, len(f.maps))
	srv := s.enrollServer()
	var next atomic.Int64
	errs := make(chan error, nLanes)
	var wg sync.WaitGroup
	for g := 0; g < nLanes; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(f.maps) {
					return
				}
				var reserved []int
				if w.Reserved {
					reserved = []int{reservedVdd}
				}
				id := deviceID(i)
				key, err := srv.Enroll(context.Background(), id, f.maps[i], reserved...)
				if err != nil {
					errs <- fmt.Errorf("enroll %s: %w", id, err)
					return
				}
				d := &device{id: id, m: f.maps[i]}
				d.r = auth.NewResponder(id, h.lanes[0].newDevice(f.maps[i]), key)
				devs[i] = d
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return nil, err
	}
	for i, d := range devs {
		ln := h.lanes[i%nLanes]
		ln.devs = append(ln.devs, d)
	}
	return h, nil
}

// warm authenticates every device once, so field caches on both ends
// are built before anything is timed. It runs one transaction at a
// time per connection: set-up should measure set-up, not the
// saturation the measured phases apply.
func (h *harness) warm(t *tally) error {
	var wg sync.WaitGroup
	errs := make(chan error, len(h.clients))
	for c := range h.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(h.lanes); i += len(h.clients) {
				ln := h.lanes[i]
				for _, d := range ln.devs {
					if err := settle(func() error { _, err := ln.auth(t, d); return err }); err != nil {
						errs <- fmt.Errorf("warm-up of %s: %w", d.id, err)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// settleWait outlasts the wire idle timeout (30 s) that releases
// streams a peer abandoned, the longest a healthy system refuses work.
const settleWait = 40 * time.Second

// settle retries a transaction outside the measured phases while it
// fails retryably, for up to settleWait: set-up and the final check
// test the system's state, not its availability. A non-retryable
// failure, such as a rejection, ends it at once.
func settle(try func() error) error {
	deadline := time.Now().Add(settleWait)
	for {
		err := try()
		if err == nil || !auth.Retryable(err) || time.Now().After(deadline) {
			return err
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// eachDevice runs fn for every device on its own lane, lanes in
// parallel, and returns the first error.
func (h *harness) eachDevice(fn func(*lane, *device) error) error {
	var wg sync.WaitGroup
	errs := make(chan error, len(h.lanes))
	for _, ln := range h.lanes {
		wg.Add(1)
		go func(ln *lane) {
			defer wg.Done()
			for _, d := range ln.devs {
				if err := fn(ln, d); err != nil {
					errs <- err
					return
				}
			}
		}(ln)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// window is a span of closed-loop running.
type window struct {
	ok  int64         // genuine operations that succeeded
	cpu time.Duration // process CPU time
	dur time.Duration
}

func (w window) plus(v window) window {
	return window{ok: w.ok + v.ok, cpu: w.cpu + v.cpu, dur: w.dur + v.dur}
}

// rate is the successful operations per second.
func (w window) rate() float64 { return float64(w.ok) / w.dur.Seconds() }

// closedLoop runs every lane back to back until d elapses and reports
// the span.
func (h *harness) closedLoop(t *tally, d time.Duration) window {
	start, ok0, cpu0 := time.Now(), t.ok.Load(), cpuTime()
	end := start.Add(d)
	var wg sync.WaitGroup
	for _, ln := range h.lanes {
		wg.Add(1)
		go func(ln *lane) {
			defer wg.Done()
			for time.Now().Before(end) {
				ln.op(t)
			}
		}(ln)
	}
	wg.Wait()
	return window{ok: t.ok.Load() - ok0, cpu: cpuTime() - cpu0, dur: time.Since(start)}
}

// openLoop sends n operations on a fixed schedule of rate per second,
// operation k due at start + k/rate and sent by lane k mod lanes. A
// lane still busy when its next operation falls due sends it as soon
// as it is free; the latency still counts from the due time.
func (h *harness) openLoop(t *tally, rate float64, n int) []openSample {
	samples := make([]openSample, n)
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for j, ln := range h.lanes {
		wg.Add(1)
		go func(j int, ln *lane) {
			defer wg.Done()
			var free time.Time
			for k := j; k < n; k += len(h.lanes) {
				s := openSample{due: start.Add(time.Duration(k) * interval)}
				s.ready = s.due
				if free.After(s.ready) {
					s.ready = free
				}
				if wait := time.Until(s.due); wait > 0 {
					time.Sleep(wait)
				}
				s.sent = time.Now()
				s.ok = ln.op(t)
				s.done = time.Now()
				free = s.done
				samples[k] = s
			}
		}(j, ln)
	}
	wg.Wait()
	return samples
}

// finalCheck authenticates every device once more with the key its
// client holds. A device whose last key update errored first runs the
// protocol's convergent recovery, another key update. It returns the
// devices that failed and the recovery key updates run.
func (h *harness) finalCheck(t *tally) (failures, recoveries int64) {
	var fails, recs atomic.Int64
	h.eachDevice(func(ln *lane, d *device) error {
		if d.remapFailed {
			recs.Add(1)
			settle(func() error { return ln.remap(t, d) })
		}
		if err := settle(func() error { _, err := ln.auth(t, d); return err }); err != nil {
			fails.Add(1)
			t.noteErr(fmt.Errorf("final check: %w", err))
		}
		return nil
	})
	return fails.Load(), recs.Load()
}

// retryStats sums the retry counters of every client.
func (h *harness) retryStats() auth.RetryStats {
	var sum auth.RetryStats
	for _, c := range h.clients {
		sum = addRetryStats(sum, c.stats())
	}
	return sum
}

func (h *harness) close() {
	for _, c := range h.clients {
		c.close()
	}
}
