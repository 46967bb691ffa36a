package main

import (
	"fmt"
	"time"
)

// layerInputs are the traced run's numbers measured outside the
// tracer, over the traced operations.
type layerInputs struct {
	ops     int64  // client operations attempted
	auths   int64  // client authentication attempts, genuine and impostor
	issued  int64  // Σ nodes Stats().Issued
	retries int64  // attempts the clients repeated after a retryable failure
	lagMax  uint64 // largest follower lag sampled
}

// layerMetrics derives the per-layer metrics from everything the
// tracer saw: the fixed-rate phase and the traced closed-loop slices.
// A layer the workload does not have reports 0.
func layerMetrics(res *result, tr *tracer, in layerInputs) {
	perOp := func(n int64) float64 { return ratio(n, in.ops) }
	res.set("device.respond_us_p50", tr.device.p(0.5), "us")
	res.set("wire.writes_per_op", perOp(tr.wireWrites.Load()), "count")
	res.set("wire.bytes_per_op", perOp(tr.wireBytes.Load()), "bytes")
	res.set("node.begin_us_p50", tr.node.begin.p(0.5), "us")
	res.set("node.begin_us_p99", tr.node.begin.p(0.99), "us")
	res.set("node.finish_us_p50", tr.node.finish.p(0.5), "us")
	res.set("node.remap_us_p50", tr.node.remap.p(0.5), "us")
	res.set("journal.us_p50", tr.journal.p(0.5), "us")
	res.set("auth.issue_self_us_p50", tr.issueSelf.p(0.5), "us")
	res.set("wal.syncs_per_op", perOp(int64(tr.walSync.count())), "count")
	res.set("wal.sync_us_p50", tr.walSync.p(0.5), "us")
	res.set("wal.sync_us_p99", tr.walSync.p(0.99), "us")
	res.set("wal.bytes_per_op", perOp(tr.walBytes.Load()), "bytes")
	res.set("repl.bytes_per_op", perOp(tr.replBytes.Load()), "bytes")
	res.set("repl.writes_per_op", perOp(tr.replWrites.Load()), "count")
	res.set("repl.lag_max", float64(in.lagMax), "records")
	res.set("auth.issued_per_op", ratio(in.issued, in.auths), "ratio")
	res.set("client.retries_per_op", perOp(in.retries), "count")
}

// splitMetrics is taken at the end of the traced fixed-rate phase:
// generator lateness, live-heap growth per operation, and the mean
// client latency split into its blocking steps. The steps are the
// calls into the client-facing node's backend and the device's answer,
// both summed per operation, so their means plus the
// transport-and-queueing remainder add up to the mean client latency.
func splitMetrics(res *result, tr *tracer, samples []openSample, heapGrowth int64) {
	late := make([]time.Duration, len(samples))
	var client time.Duration
	for i, s := range samples {
		late[i] = s.lateness()
		client += s.done.Sub(s.sent)
	}
	n := float64(max(len(samples), 1))
	res.set("loadgen.late_p99_ms", percentile(ms(late), 0.99), "ms")
	res.set("crp.heap_bytes_per_op", float64(heapGrowth)/n, "bytes")

	_, deviceTotal := tr.device.snapshot()
	clientUS := float64(client) / float64(time.Microsecond) / n
	serverUS := float64(tr.node.busy.Load()) / float64(time.Microsecond) / n
	deviceUS := float64(deviceTotal) / float64(time.Microsecond) / n
	rest := clientUS - serverUS - deviceUS
	res.set("split.client_mean_us", clientUS, "us")
	res.set("split.steps_mean_us", serverUS+deviceUS, "us")
	res.set("split.transport_queue_us", rest, "us")
	res.notes = append(res.notes, fmt.Sprintf(
		"split (fixed-rate phase): mean client latency %.1f us = node steps %.1f us + device respond %.1f us + transport and queueing %.1f us",
		clientUS, serverUS, deviceUS, rest))
}
