package agreement

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
)

// runQuorum executes the quorum k-set algorithm for n=4, f=1 under a
// benign oracle and returns the result.
func runQuorum(t *testing.T, factory core.Factory) *core.Result {
	t.Helper()
	inputs := []core.Value{3, 1, 2, 0}
	res, err := core.Run(4, inputs, factory, adversary.Benign(4), core.WithMaxRounds(8))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestQuorumKSetBenignDecidesMin(t *testing.T) {
	res := runQuorum(t, QuorumKSet(1))
	for p, v := range res.Outputs {
		if v != 0 {
			t.Fatalf("process %d decided %v, want global min 0 under full views", p, v)
		}
	}
	if res.DistinctOutputs() != 1 {
		t.Fatalf("distinct outputs = %d, want 1", res.DistinctOutputs())
	}
}

func TestQuorumKSetWaitsBelowQuorum(t *testing.T) {
	// An adversary that hides two senders from process 0 keeps it below
	// the n−f=3 quorum: it must not decide that round.
	oracle := core.OracleFunc(func(r int, active core.Set) core.RoundPlan {
		ds := make([]core.Set, 4)
		for i := range ds {
			ds[i] = core.NewSet(4)
		}
		if r == 1 {
			ds[0].Add(1)
			ds[0].Add(2)
		}
		return core.RoundPlan{Suspects: ds}
	})
	res, err := core.Run(4, []core.Value{3, 1, 2, 0}, QuorumKSet(1), oracle, core.WithMaxRounds(8))
	if err != nil {
		t.Fatal(err)
	}
	if res.DecidedAt[0] != 2 {
		t.Fatalf("process 0 decided in round %d, want 2 (round 1 view is sub-quorum)", res.DecidedAt[0])
	}
}

func TestQuorumKSetBuggyFallback(t *testing.T) {
	// The same sub-quorum view makes the buggy variant decide its raw
	// input — and even full views trip its strict comparison when
	// |S| == quorum. With f=3, quorum = 1: every full 4-message view is
	// > 1, so the bug hides; with f=0, quorum = 4 and len(msgs) > 4 is
	// impossible, so every process decides its own input.
	res := runQuorum(t, QuorumKSetBuggy(0))
	if res.DistinctOutputs() != 4 {
		t.Fatalf("distinct outputs = %d, want 4 (fallback decides raw inputs)", res.DistinctOutputs())
	}
	for p, v := range res.Outputs {
		if v != []core.Value{3, 1, 2, 0}[p] {
			t.Fatalf("process %d decided %v, want its own input", p, v)
		}
	}
}

func TestQuorumFingerprintTracksState(t *testing.T) {
	a := QuorumKSet(1)(0, 3, 5).(*quorumKSet)
	b := QuorumKSet(1)(0, 3, 5).(*quorumKSet)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical states hash differently")
	}
	b.decided, b.out = true, 5
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("deciding did not change the fingerprint")
	}
	c := QuorumKSetBuggy(1)(0, 3, 5).(*quorumKSet)
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("buggy flag not part of the fingerprint")
	}
}

func TestFloodMinFingerprintTracksEstimate(t *testing.T) {
	a := FloodMin(2)(0, 3, 7).(*floodMin)
	b := FloodMin(2)(0, 3, 7).(*floodMin)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical states hash differently")
	}
	b.est = 1
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("estimate change did not change the fingerprint")
	}
}

// TestQuorumMin pins the one honest decision rule at its boundaries, for
// n = 4, f = 1 (quorum 3) as seen by process 2 with input 20.
func TestQuorumMin(t *testing.T) {
	const quorum = 3
	cases := []struct {
		name string
		view map[core.PID]core.Value
		min  int
		ok   bool
	}{
		{"empty view", map[core.PID]core.Value{}, 0, false},
		{"nil view", nil, 0, false},
		{"one short of quorum", map[core.PID]core.Value{0: 5, 2: 20}, 0, false},
		{"exactly quorum", map[core.PID]core.Value{0: 5, 2: 20, 3: 30}, 5, true},
		{"everyone heard", map[core.PID]core.Value{0: 5, 1: 10, 2: 20, 3: 30}, 5, true},
		{"own value smallest", map[core.PID]core.Value{1: 40, 2: 20, 3: 30}, 20, true},
		{"own value largest", map[core.PID]core.Value{0: 5, 1: 10, 2: 20}, 5, true},
		{"own message missed", map[core.PID]core.Value{0: 50, 1: 40, 3: 30}, 30, true},
		{"non-int values ignored", map[core.PID]core.Value{0: "x", 1: 7, 3: nil}, 7, true},
		{"no int at all", map[core.PID]core.Value{0: "x", 1: "y", 3: nil}, 0, false},
	}
	for _, c := range cases {
		if min, ok := QuorumMin(c.view, quorum); min != c.min || ok != c.ok {
			t.Errorf("%s: QuorumMin = (%d, %v), want (%d, %v)", c.name, min, ok, c.min, c.ok)
		}
	}
	// The typed views of the service and the journal go through the same
	// rule, and a quorum of zero still never decides from nothing.
	if min, ok := QuorumMin(map[core.PID]int{0: 9, 1: -3, 2: 4}, quorum); min != -3 || !ok {
		t.Errorf("int view: QuorumMin = (%d, %v), want (-3, true)", min, ok)
	}
	if _, ok := QuorumMin(map[core.PID]int{}, 0); ok {
		t.Error("an empty view decided under quorum 0")
	}
}
