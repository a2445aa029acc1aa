package chaos

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunServeHonest runs the kill-and-recover campaign against an
// honest cluster: the victim dies at its planted kill point mid-batch,
// restarts, and every service promise must hold.
func TestRunServeHonest(t *testing.T) {
	var out bytes.Buffer
	sum, err := RunServe(ServeConfig{Seed: 7, dir: t.TempDir(), Out: &out})
	if err != nil {
		t.Fatalf("RunServe: %v", err)
	}
	if !sum.Ok() {
		t.Fatalf("honest campaign reported violations:\n%s", sum)
	}
	if sum.Acked == 0 {
		t.Fatalf("campaign acknowledged nothing: %s", sum)
	}
	if sum.VictimIncarnation != 2 {
		t.Fatalf("victim incarnation %d, want 2", sum.VictimIncarnation)
	}
	if sum.CrashFired && sum.DurableDecisions < sum.CrashAfterAcks {
		t.Fatalf("crash fired after %d acks but only %d durable decisions: %s",
			sum.CrashAfterAcks, sum.DurableDecisions, sum)
	}
	if !strings.Contains(out.String(), "0 violations") {
		t.Fatalf("summary not printed to Out:\n%s", out.String())
	}
}

// TestRunServeCatchesAckBeforeJournalBug plants the inversion: the same
// campaign at the same seed must report the acknowledged decision the
// victim's journal lost.
func TestRunServeCatchesAckBeforeJournalBug(t *testing.T) {
	sum, err := RunServe(ServeConfig{Seed: 7, Bug: true, dir: t.TempDir()})
	if err != nil {
		t.Fatalf("RunServe: %v", err)
	}
	if !sum.CrashFired {
		t.Fatalf("planted crash hook never fired: %s", sum)
	}
	lost := 0
	for _, v := range sum.Violations {
		if v.Kind == "lost-ack" {
			lost++
		}
	}
	if lost == 0 {
		t.Fatalf("bug campaign missed the lost acknowledgement:\n%s", sum)
	}
}
