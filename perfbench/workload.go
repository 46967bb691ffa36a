package main

import (
	"fmt"
	"time"
)

// workload is one traffic mix and the system it runs against. The
// values are fixed here, not taken from the command line, so every run
// of a workload measures the same thing; BENCHMARK.json records why
// each workload exists.
type workload struct {
	Name string `json:"name"`
	// Nodes is 1 for a single durable node, 3 for a replicated
	// cluster (node 0 primary, one replica ack). Clients dial the
	// single node or the primary.
	Nodes int `json:"nodes"`
	// Devices is the fleet size; lanes own disjoint device sets.
	Devices int `json:"devices"`
	// Lines is the simulated cache size in lines; 16384 lines hold
	// 1.3e8 pairs per plane, past the 2^26-pair cutoff, so the CRP
	// registry is the sparse growing map.
	Lines        int `json:"lines"`
	ErrsPerPlane int `json:"errors_per_plane"`
	// ChallengeBits is the CRP length of an authentication.
	ChallengeBits int `json:"challenge_bits"`
	// Reserved enrolls one extra voltage plane held back for key
	// updates.
	Reserved bool `json:"reserved_plane"`
	// RemapEvery runs a key update as every n-th transaction of each
	// device (0: never).
	RemapEvery int `json:"remap_every"`
	// Rate is the fixed-rate phase's schedule, in operations per
	// second: about a fifth of the workload's closed-loop capacity on
	// a 2-vCPU host, so a host that loses part of its CPU to other
	// guests for a while still carries it.
	Rate float64 `json:"rate_per_s"`
	// Limit is the latency limit open_slo_frac counts against.
	Limit time.Duration `json:"latency_limit_ns"`
	// ImpostorFrac is the share of attempts made by a different chip
	// answering under an enrolled identity with its current key.
	ImpostorFrac float64 `json:"impostor_frac"`
}

const (
	authVdd     = 680 // mV of the authentication plane
	reservedVdd = 640 // mV of the key-update plane
)

var workloads = []workload{
	{
		Name: "single-fleet", Nodes: 1, Devices: 1024,
		Lines: 16384, ErrsPerPlane: 100, ChallengeBits: 128,
		Rate: 1200, Limit: 5 * time.Millisecond, ImpostorFrac: 0.01,
	},
	{
		Name: "hot-rotate", Nodes: 3, Devices: 32,
		Lines: 16384, ErrsPerPlane: 100, ChallengeBits: 128,
		Reserved: true, RemapEvery: 10,
		Rate: 250, Limit: 10 * time.Millisecond, ImpostorFrac: 0.01,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
