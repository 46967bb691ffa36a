package main

import (
	"context"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/auth"
	"repro/internal/crp"
	"repro/internal/mapkey"
	"repro/internal/wal"
)

// Tracing lives entirely in this file: pass-through wrappers around
// the program's public seams (TxBackend, Journal, wal.FS, net.Listener,
// net.Conn, auth.Device). Every wrapper returns its inner call's
// results and errors unchanged and only times or counts the call while
// the tracer is on. Untraced runs install none of them.

// tracer holds every per-layer counter of one traced run.
type tracer struct {
	on atomic.Bool

	node layerStats

	journal   recorder // each auth.Journal call on the single node
	issueSelf recorder // node BeginAuth minus the journal time inside it
	// journalByID carries the journal time spent for one client from
	// the Journal decorator to the BeginAuth that caused it; a device
	// never runs two transactions at once, so the id is unambiguous.
	journalByID sync.Map // auth.ClientID → time.Duration

	device recorder // auth.Device Respond/RespondDefault

	walSync            recorder
	walBytes, walWrite atomic.Int64

	wireBytes, wireWrites atomic.Int64
	replBytes, replWrites atomic.Int64
}

func (t *tracer) takeJournal(id auth.ClientID) time.Duration {
	if v, ok := t.journalByID.LoadAndDelete(id); ok {
		return v.(time.Duration)
	}
	return 0
}

// layerStats is what one TxBackend decorator records.
type layerStats struct {
	begin, finish recorder
	remap         recorder     // BeginRemapTx + FinishRemapTx of one key update
	busy          atomic.Int64 // ns inside any of the four methods
	remapBegun    sync.Map     // auth.ClientID → time.Duration of the begin half
}

// tracedBackend decorates a TxBackend. With selfJournal set (the
// single node, whose journal is decorated too) it also records the
// issuance time net of journaling.
type tracedBackend struct {
	inner       auth.TxBackend
	tr          *tracer
	ls          *layerStats
	selfJournal bool
}

// tracedHealthBackend keeps auth.HealthReporter visible through the
// decorator, so probes see the same backend they would without it.
type tracedHealthBackend struct {
	*tracedBackend
	hr auth.HealthReporter
}

func (b tracedHealthBackend) Health() auth.PeerHealth { return b.hr.Health() }

// wrapBackend returns the decorator, implementing auth.HealthReporter
// exactly when inner does.
func wrapBackend(inner auth.TxBackend, tr *tracer, ls *layerStats, selfJournal bool) auth.TxBackend {
	tb := &tracedBackend{inner: inner, tr: tr, ls: ls, selfJournal: selfJournal}
	if hr, ok := inner.(auth.HealthReporter); ok {
		return tracedHealthBackend{tracedBackend: tb, hr: hr}
	}
	return tb
}

func (b *tracedBackend) BeginAuth(ctx context.Context, id auth.ClientID) (*crp.Challenge, error) {
	if !b.tr.on.Load() {
		return b.inner.BeginAuth(ctx, id)
	}
	t0 := time.Now()
	ch, err := b.inner.BeginAuth(ctx, id)
	d := time.Since(t0)
	b.ls.begin.add(d)
	b.ls.busy.Add(int64(d))
	if b.selfJournal {
		b.tr.issueSelf.add(d - b.tr.takeJournal(id))
	}
	return ch, err
}

func (b *tracedBackend) FinishAuth(ctx context.Context, id auth.ClientID, challengeID uint64, resp crp.Response) (auth.AuthVerdict, error) {
	if !b.tr.on.Load() {
		return b.inner.FinishAuth(ctx, id, challengeID, resp)
	}
	t0 := time.Now()
	v, err := b.inner.FinishAuth(ctx, id, challengeID, resp)
	d := time.Since(t0)
	b.ls.finish.add(d)
	b.ls.busy.Add(int64(d))
	return v, err
}

func (b *tracedBackend) BeginRemapTx(ctx context.Context, id auth.ClientID) (*auth.RemapRequest, error) {
	if !b.tr.on.Load() {
		return b.inner.BeginRemapTx(ctx, id)
	}
	t0 := time.Now()
	req, err := b.inner.BeginRemapTx(ctx, id)
	d := time.Since(t0)
	b.ls.busy.Add(int64(d))
	if err == nil {
		b.ls.remapBegun.Store(id, d)
	}
	if b.selfJournal {
		b.tr.takeJournal(id)
	}
	return req, err
}

func (b *tracedBackend) FinishRemapTx(ctx context.Context, id auth.ClientID, success bool) error {
	if !b.tr.on.Load() {
		return b.inner.FinishRemapTx(ctx, id, success)
	}
	t0 := time.Now()
	err := b.inner.FinishRemapTx(ctx, id, success)
	d := time.Since(t0)
	b.ls.busy.Add(int64(d))
	if v, ok := b.ls.remapBegun.LoadAndDelete(id); ok {
		b.ls.remap.add(v.(time.Duration) + d)
	}
	if b.selfJournal {
		b.tr.takeJournal(id)
	}
	return err
}

// tracedJournal decorates the single node's auth.Journal.
type tracedJournal struct {
	inner auth.Journal
	tr    *tracer
}

func (j tracedJournal) time(id string, call func() error) error {
	if !j.tr.on.Load() {
		return call()
	}
	t0 := time.Now()
	err := call()
	d := time.Since(t0)
	j.tr.journal.add(d)
	cid := auth.ClientID(id)
	if prev, ok := j.tr.journalByID.Load(cid); ok {
		d += prev.(time.Duration)
	}
	j.tr.journalByID.Store(cid, d)
	return err
}

func (j tracedJournal) JournalEnroll(id string, mapBytes []byte, key [32]byte, reserved []int) error {
	return j.time(id, func() error { return j.inner.JournalEnroll(id, mapBytes, key, reserved) })
}

func (j tracedJournal) JournalBurn(id string, pairs []crp.PairBit, nextID uint64, crpsSinceRemap int) error {
	return j.time(id, func() error { return j.inner.JournalBurn(id, pairs, nextID, crpsSinceRemap) })
}

func (j tracedJournal) JournalRemap(id string, newKey [32]byte) error {
	return j.time(id, func() error { return j.inner.JournalRemap(id, newKey) })
}

func (j tracedJournal) JournalCounter(id string, nextID uint64) error {
	return j.time(id, func() error { return j.inner.JournalCounter(id, nextID) })
}

func (j tracedJournal) JournalDelete(id string) error {
	return j.time(id, func() error { return j.inner.JournalDelete(id) })
}

// countingFS decorates the WAL's filesystem: bytes and writes into
// segment files, and the duration of every fsync.
type countingFS struct {
	wal.FS
	tr *tracer
}

func (f countingFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return file, err
	}
	return countingFile{File: file, tr: f.tr}, nil
}

type countingFile struct {
	wal.File
	tr *tracer
}

func (f countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	if f.tr.on.Load() {
		f.tr.walBytes.Add(int64(n))
		f.tr.walWrite.Add(1)
	}
	return n, err
}

func (f countingFile) Sync() error {
	if !f.tr.on.Load() {
		return f.File.Sync()
	}
	t0 := time.Now()
	err := f.File.Sync()
	f.tr.walSync.add(time.Since(t0))
	return err
}

// countingConn counts the writes issued on a connection and the bytes
// they carry, plus the bytes read when reads is set. A link with both
// ends wrapped counts writes only, so each byte is counted once.
type countingConn struct {
	net.Conn
	on            *atomic.Bool
	bytes, writes *atomic.Int64
	reads         bool
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.reads && c.on.Load() {
		c.bytes.Add(int64(n))
	}
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.on.Load() {
		c.bytes.Add(int64(n))
		c.writes.Add(1)
	}
	return n, err
}

// countingListener wraps every accepted connection in a countingConn.
type countingListener struct {
	net.Listener
	on            *atomic.Bool
	bytes, writes *atomic.Int64
	reads         bool
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return c, err
	}
	return countingConn{Conn: c, on: l.on, bytes: l.bytes, writes: l.writes, reads: l.reads}, nil
}

// tracedDevice times the simulated silicon answering challenges.
type tracedDevice struct {
	auth.Device
	tr *tracer
}

func (d tracedDevice) Respond(ch *crp.Challenge, key mapkey.Key) (crp.Response, error) {
	if !d.tr.on.Load() {
		return d.Device.Respond(ch, key)
	}
	t0 := time.Now()
	r, err := d.Device.Respond(ch, key)
	d.tr.device.add(time.Since(t0))
	return r, err
}

func (d tracedDevice) RespondDefault(ch *crp.Challenge) (crp.Response, error) {
	if !d.tr.on.Load() {
		return d.Device.RespondDefault(ch)
	}
	t0 := time.Now()
	r, err := d.Device.RespondDefault(ch)
	d.tr.device.add(time.Since(t0))
	return r, err
}
