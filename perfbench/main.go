// Command perfbench is the repository's end-to-end benchmark. It
// starts the authentication system in-process — one durable node, or
// a 3-node replicated cluster — with real WAL fsyncs
// under -dir, drives it over loopback TCP with the v2 wire protocol
// from simulated devices, checks every verdict, and prints the
// workload's metrics. The last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run installs pass-through wrappers around the program's seams and
// prints the per-layer metrics instead. Provenance, diagnostics and a
// metric table precede the result as lines starting with "#".
//
//	go run . -workload single-fleet -seed 1 -seconds 20 -trace 0 -dir /tmp/pb
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() {
	name := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "workload seed: generates the fleet and the traffic")
	seconds := flag.Float64("seconds", 10, "measured time of the run, split across its phases")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
	dir := flag.String("dir", "", "scratch directory for WAL segments; emptied afterwards")
	flag.Parse()

	w, err := findWorkload(*name)
	if err == nil && *dir == "" {
		err = fmt.Errorf("-dir is required")
	}
	if err == nil && (*trace != 0 && *trace != 1) {
		err = fmt.Errorf("-trace must be 0 or 1")
	}
	if err == nil && *seconds <= 0 {
		err = fmt.Errorf("-seconds must be positive")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	o := options{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, dir: *dir, setups: minSetups, maxSetups: maxSetups}
	if o.trace {
		// setup_s is an end-to-end metric; a traced run sets up once.
		o.setups, o.maxSetups = 1, 1
	}
	res, err := run(o)
	if rerr := os.RemoveAll(*dir); err == nil && rerr != nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if o.trace {
		res.metrics = selectMetrics(res.metrics, perLayer)
	} else {
		res.metrics = selectMetrics(res.metrics, endToEnd)
	}
	report(os.Stdout, o, res)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}

// report prints provenance, diagnostics and the metric table as
// comment lines, then the result object as the last line.
func report(f *os.File, o options, res *result) {
	prov, _ := json.Marshal(res.provenance)
	fmt.Fprintf(f, "# provenance %s\n", prov)
	for _, n := range res.notes {
		fmt.Fprintf(f, "# %s\n", n)
	}
	for _, v := range res.violations {
		fmt.Fprintf(f, "# GATE FAILED: %s\n", v)
	}
	names := make([]string, 0, len(res.metrics))
	for k := range res.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := res.metrics[k]
		fmt.Fprintf(f, "# %-14s %-28s %14.6g %s\n", o.w.Name, k, m.Value, m.Unit)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, res.metrics}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(f, "%s\n", line)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// provenance describes the host and the inputs of a run.
type provenance struct {
	GOMAXPROCS int      `json:"gomaxprocs"`
	NumCPU     int      `json:"num_cpu"`
	CPU        string   `json:"cpu"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	WALFS      string   `json:"wal_fs"`
	Seed       uint64   `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Trace      bool     `json:"trace"`
	Conns      int      `json:"conns"`
	Streams    int      `json:"streams_per_conn"`
	Setups     int      `json:"setups"`
	Workload   workload `json:"workload"`
}

func hostProvenance(o options, conns int) provenance {
	return provenance{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		WALFS:      filesystemOf(o.dir),
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace,
		Conns:      conns,
		Streams:    streamsPerConn,
		Setups:     o.setups,
		Workload:   o.w,
	}
}

// cpuModel reads the first model name from /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
