package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/auth"
	"repro/internal/cluster"
	"repro/internal/wal"
)

// system is the program under test, started in-process: one durable
// node, or a 3-node replicated cluster. Clients reach it only over
// loopback TCP at the ingress addresses.
type system struct {
	single *auth.Server
	wal    *wal.WAL
	nodes  []*cluster.Node
	wss    []*auth.WireServer

	ingress []string
	cancel  context.CancelFunc
	serving sync.WaitGroup
}

// serverConfig is authd's server configuration at 128-bit challenges.
func serverConfig(w workload) auth.Config {
	cfg := auth.DefaultConfig()
	cfg.ChallengeBits = w.ChallengeBits
	return cfg
}

// Server-side randomness is not an input of the workload, so it is
// fixed; the workload seed drives only the fleet and the traffic.
const serverSeed = 0x5eed

// listen binds a loopback listener on an ephemeral port.
func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// startSystem brings the workload's system up under dir. tr, when
// non-nil, installs the tracing wrappers.
func startSystem(w workload, dir string, tr *tracer) (*system, error) {
	ctx, cancel := context.WithCancel(context.Background())
	s := &system{cancel: cancel}
	var err error
	if w.Nodes == 1 {
		err = s.startSingle(ctx, w, dir, tr)
	} else {
		err = s.startCluster(ctx, w, dir, tr)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// walOptions keeps the WAL defaults (fsync on, default group commit),
// swapping in the counting filesystem when traced.
func walOptions(tr *tracer) wal.Options {
	if tr == nil {
		return wal.Options{}
	}
	return wal.Options{FS: countingFS{FS: wal.OSFS(), tr: tr}}
}

// serve exposes be on a fresh loopback listener; ingress listeners
// count client-facing traffic when traced.
func (s *system) serve(ctx context.Context, be auth.TxBackend, l net.Listener) error {
	ws, err := auth.NewWireServerBackend(be, auth.WireConfig{})
	if err != nil {
		l.Close()
		return err
	}
	s.wss = append(s.wss, ws)
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		ws.Serve(ctx, l)
	}()
	return nil
}

func countIngress(l net.Listener, tr *tracer) net.Listener {
	if tr == nil {
		return l
	}
	// Clients are not wrapped, so this end counts both directions.
	return countingListener{Listener: l, on: &tr.on, bytes: &tr.wireBytes, writes: &tr.wireWrites, reads: true}
}

// startSingle builds the OpenDurableServer shape by hand, so the
// journal can be decorated: open the WAL, salt the challenge stream
// with the log tail, attach the journal, serve LocalBackend over v2.
func (s *system) startSingle(ctx context.Context, w workload, dir string, tr *tracer) error {
	lg, err := wal.Open(filepath.Join(dir, "node-0"), walOptions(tr))
	if err != nil {
		return err
	}
	s.wal = lg
	srv := auth.NewServer(serverConfig(w), serverSeed)
	srv.SaltChallengeStream(lg.CommittedSeq())
	var j auth.Journal = lg
	be := auth.LocalBackend(srv)
	if tr != nil {
		j = tracedJournal{inner: lg, tr: tr}
		be = wrapBackend(be, tr, &tr.node, true)
	}
	srv.AttachJournal(j)
	s.single = srv
	l, err := listen()
	if err != nil {
		return err
	}
	s.ingress = []string{l.Addr().String()}
	return s.serve(ctx, be, countIngress(l, tr))
}

// linkDialer returns a dialer for replication links, counted when
// count is set.
func linkDialer(count func(net.Conn) net.Conn) func(ctx context.Context, network, addr string) (net.Conn, error) {
	return func(ctx context.Context, network, addr string) (net.Conn, error) {
		var d net.Dialer
		c, err := d.DialContext(ctx, network, addr)
		if err != nil || count == nil {
			return c, err
		}
		return count(c), nil
	}
}

// startCluster starts 3 nodes (node 0 primary, one replica ack) with
// authd's defaults and waits for both followers to attach. Clients
// dial the primary's client port, so every pair burn and key update is
// journaled there and acknowledged by a follower before it returns.
func (s *system) startCluster(ctx context.Context, w workload, dir string, tr *tracer) error {
	const n = 3
	repl := make([]net.Listener, n)
	client := make([]net.Listener, n)
	replAddrs := make([]string, n)
	clientAddrs := make([]string, n)
	// On a failed start every listener is closed here; closing one a
	// node or wire server already owns again is harmless.
	closeAll := func() {
		for _, l := range append(repl, client...) {
			if l != nil {
				l.Close()
			}
		}
	}
	for i := 0; i < n; i++ {
		var err error
		if repl[i], err = listen(); err != nil {
			closeAll()
			return err
		}
		if client[i], err = listen(); err != nil {
			closeAll()
			return err
		}
		replAddrs[i] = repl[i].Addr().String()
		clientAddrs[i] = client[i].Addr().String()
	}
	// Both ends of a replication link are wrapped, each counting its
	// own writes.
	var countRepl func(net.Conn) net.Conn
	if tr != nil {
		countRepl = func(c net.Conn) net.Conn {
			return countingConn{Conn: c, on: &tr.on, bytes: &tr.replBytes, writes: &tr.replWrites}
		}
	}
	dial := linkDialer(countRepl)
	for i := 0; i < n; i++ {
		rl := repl[i]
		if tr != nil {
			rl = countingListener{Listener: rl, on: &tr.on, bytes: &tr.replBytes, writes: &tr.replWrites}
		}
		node, err := cluster.Open(cluster.Config{
			NodeIndex:    i,
			Peers:        replAddrs,
			ClientPeers:  clientAddrs,
			Dir:          filepath.Join(dir, fmt.Sprintf("node-%d", i)),
			Auth:         serverConfig(w),
			Seed:         serverSeed,
			ReplicaAcks:  1,
			ReplListener: rl,
			Dial:         dial,
			WAL:          walOptions(tr),
		})
		if err != nil {
			closeAll()
			return err
		}
		s.nodes = append(s.nodes, node)
		if err := node.Start(ctx); err != nil {
			closeAll()
			return err
		}
	}
	for i, node := range s.nodes {
		var be auth.TxBackend = node.Backend()
		if tr != nil {
			be = wrapBackend(be, tr, &tr.node, false)
		}
		if err := s.serve(ctx, be, countIngress(client[i], tr)); err != nil {
			closeAll()
			return err
		}
	}
	if err := waitFor(ctx, 10*time.Second, func() bool { return s.nodes[0].Status().Followers == n-1 }); err != nil {
		return fmt.Errorf("followers never attached: %w", err)
	}

	s.ingress = clientAddrs[:1]
	return nil
}

// servers lists every embedded auth server.
func (s *system) servers() []*auth.Server {
	if s.single != nil {
		return []*auth.Server{s.single}
	}
	out := make([]*auth.Server, len(s.nodes))
	for i, n := range s.nodes {
		out[i] = n.Server()
	}
	return out
}

// enrollServer is where enrollments go: the node, or the primary,
// whose journal replicates them.
func (s *system) enrollServer() *auth.Server {
	if s.single != nil {
		return s.single
	}
	return s.nodes[0].Server()
}

// stats sums the service counters over every node.
func (s *system) stats() auth.ServerStats {
	var sum auth.ServerStats
	for _, srv := range s.servers() {
		st := srv.Stats()
		sum.Issued += st.Issued
		sum.Accepted += st.Accepted
		sum.Rejected += st.Rejected
	}
	return sum
}

// maxLag is the largest follower lag behind the primary's advertised
// commit frontier, as the nodes report it.
func (s *system) maxLag() uint64 {
	var lag uint64
	for _, n := range s.nodes[min(1, len(s.nodes)):] {
		lag = max(lag, n.Status().Lag)
	}
	return lag
}

// replicaGaps waits up to timeout for every follower's AppliedSeq to
// reach the primary's CommitSeq and describes any that did not.
func (s *system) replicaGaps(timeout time.Duration) []string {
	if len(s.nodes) < 2 {
		return nil
	}
	caughtUp := func() bool {
		commit := s.nodes[0].Status().CommitSeq
		for _, n := range s.nodes[1:] {
			if n.AppliedSeq() < commit {
				return false
			}
		}
		return true
	}
	if waitFor(context.Background(), timeout, caughtUp) == nil {
		return nil
	}
	commit := s.nodes[0].Status().CommitSeq
	var gaps []string
	for i, n := range s.nodes[1:] {
		if a := n.AppliedSeq(); a < commit {
			gaps = append(gaps, fmt.Sprintf("node %d applied %d < primary commit %d", i+1, a, commit))
		}
	}
	return gaps
}

// close stops the wire servers and the nodes, and waits for every
// serving goroutine.
func (s *system) close() error {
	var errs []error
	s.cancel()
	for _, ws := range s.wss {
		ws.Close()
	}
	s.serving.Wait()
	for _, n := range s.nodes {
		errs = append(errs, n.Close())
	}
	if s.wal != nil {
		errs = append(errs, s.wal.Close())
	}
	return errors.Join(errs...)
}

// waitFor polls cond every millisecond until it holds or timeout ends.
func waitFor(ctx context.Context, timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return errors.New("timed out")
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	return nil
}
