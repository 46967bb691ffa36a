package auth

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/crp"
)

// registryUsed reads a client's burned-pair count.
func registryUsed(t *testing.T, srv *Server, id ClientID) int {
	t.Helper()
	rec, ok := srv.store.Get(id)
	if !ok {
		t.Fatalf("client %s not enrolled", id)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.registry.Used()
}

// Issuance burns each pair as it draws it. A challenge that runs out of
// pairs partway must fail with CodeExhausted and hand every pair it had
// burned back, so the registry reads exactly as before the attempt.
func TestExhaustedIssueLeavesRegistryUnchanged(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ChallengeBits = 60
	m := testMap(t, 16, 4, 3, 680) // 16*15/2 = 120 pairs: one challenge fits, two do not
	srv, _ := enrolledPair(t, cfg, m, m)

	if _, err := srv.IssueChallenge(ctx, "dev-1"); err != nil {
		t.Fatalf("first issue: %v", err)
	}
	before := registryUsed(t, srv, "dev-1")
	if before != cfg.ChallengeBits {
		t.Fatalf("Used=%d after one challenge, want %d", before, cfg.ChallengeBits)
	}
	_, err := srv.IssueChallenge(ctx, "dev-1")
	if CodeOf(err) != CodeExhausted {
		t.Fatalf("second issue: got %v, want code %s", err, CodeExhausted)
	}
	if got := registryUsed(t, srv, "dev-1"); got != before {
		t.Fatalf("Used=%d after a failed issue, want %d", got, before)
	}
}

// unavailableJournal fails every burn the way the cluster journal does
// when a quorum ack times out: with an AuthError already coded
// unavailable.
type unavailableJournal struct{ captureJournal }

func (unavailableJournal) JournalBurn(id string, _ []crp.PairBit, _ uint64, _ int) error {
	return &AuthError{Code: CodeUnavailable, ClientID: ClientID(id), Err: fmt.Errorf("%w: cluster: quorum ack timed out", ErrUnavailable)}
}

// A cause that is already an unavailable AuthError is returned as is,
// so the message states its code once.
func TestUnavailableJournalErrorWrappedOnce(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ChallengeBits = 64
	cfg.WAL = &unavailableJournal{}
	srv, _ := enrolledPair(t, cfg, testMap(t, 16384, 100, 9, 680), nil)

	check := func(op string, err error) {
		t.Helper()
		if !errors.Is(err, ErrUnavailable) {
			t.Fatalf("%s: %v does not match ErrUnavailable", op, err)
		}
		if n := strings.Count(err.Error(), "[code="); n != 1 {
			t.Fatalf("%s: %q carries %d codes, want 1", op, err, n)
		}
	}
	_, err := srv.IssueChallenge(ctx, "dev-1")
	check("IssueChallenge", err)

	prop, err := srv.SampleChallenge(ctx, "dev-1")
	if err != nil {
		t.Fatal(err)
	}
	_, err = srv.ApproveBurn(ctx, "dev-1", prop.Phys, prop.KeySum)
	check("ApproveBurn", err)
}
