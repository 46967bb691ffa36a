package main

import "fmt"

// gateCounts are the numbers the correctness gates judge, taken over
// the measured system's whole life: warm-up, both phases and the final
// check.
type gateCounts struct {
	// ImpostorAccepts counts impostor attempts the system accepted.
	ImpostorAccepts int64
	// ConfirmMismatches counts accepted verdicts whose session-confirm
	// tag did not match the client's key (WireClient reports them as
	// errors).
	ConfirmMismatches int64
	// ClientAccepts counts accepted verdicts the clients received;
	// ServerAccepts is Σ nodes Stats().Accepted.
	ClientAccepts, ServerAccepts int64
	// Failures counts failed client attempts, retried or final; each
	// may hide one server accept whose verdict never arrived.
	Failures int64
	// ReplicaGaps describes followers whose AppliedSeq did not reach the
	// primary's CommitSeq after quiesce.
	ReplicaGaps []string
	// FinalAuthFailures counts devices whose final authentication with
	// their last rotated key failed.
	FinalAuthFailures int64
}

// violations lists every gate the counts fail; empty means valid.
func (g gateCounts) violations() []string {
	var v []string
	if g.ImpostorAccepts > 0 {
		v = append(v, fmt.Sprintf("%d impostor attempts accepted", g.ImpostorAccepts))
	}
	if g.ConfirmMismatches > 0 {
		v = append(v, fmt.Sprintf("%d accepts with a mismatched session-confirm tag", g.ConfirmMismatches))
	}
	if g.ClientAccepts > g.ServerAccepts {
		v = append(v, fmt.Sprintf("clients saw %d accepts, servers counted only %d", g.ClientAccepts, g.ServerAccepts))
	} else if gap := g.ServerAccepts - g.ClientAccepts; gap > g.Failures {
		v = append(v, fmt.Sprintf("servers counted %d accepts the clients never saw, more than the %d failed operations", gap, g.Failures))
	}
	for _, gap := range g.ReplicaGaps {
		v = append(v, "replica behind after quiesce: "+gap)
	}
	if g.FinalAuthFailures > 0 {
		v = append(v, fmt.Sprintf("%d devices failed their final authentication with their last rotated key", g.FinalAuthFailures))
	}
	return v
}
