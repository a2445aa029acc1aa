package chaos

import (
	"testing"
	"time"
)

// crossCfg is the deterministic cross-validation shape: 4 processes,
// 1-resilient, 2-set agreement under a never-healing three-way split.
func crossCfg(quorumBug bool) Config {
	return Config{N: 4, F: 1, K: 2, Rounds: 2, QuorumBug: quorumBug,
		WatchdogSteps: 600, lingerSteps: 200}
}

func crossNet() NetConfig {
	return NetConfig{watchdog: 300 * time.Millisecond, linger: 50 * time.Millisecond}
}

// TestCrossValidateQuorumBug is the acceptance scenario: the same
// never-healing split-brain plan, run through the virtual injector and
// through the socket proxy over real TCP, must reproduce the SAME
// k-agreement violation on both substrates — three islands each deciding
// their own minimum under the quorum bug.
func TestCrossValidateQuorumBug(t *testing.T) {
	plan := SplitBrainPlan(4, 1)
	v, err := CrossValidate(crossCfg(true), 11, plan, crossNet())
	if err != nil {
		t.Fatalf("CrossValidate: %v", err)
	}
	if !v.Agree {
		t.Fatalf("substrates disagree: %s", v)
	}
	if !v.VirtualStalled || !v.NetStalled {
		t.Fatalf("partitioned rounds should stall on both substrates: %s", v)
	}
	assertKind := func(name string, vs []Violation) {
		t.Helper()
		if len(vs) == 0 {
			t.Fatalf("%s: quorum bug under split-brain produced no violation: %s", name, v)
		}
		for _, viol := range vs {
			if viol.Kind != "k-agreement" {
				t.Fatalf("%s: unexpected violation kind %q: %s", name, viol.Kind, viol.Detail)
			}
		}
	}
	assertKind("virtual", v.Virtual)
	assertKind("tcp", v.Net)
}

// TestCrossValidateHonestRuleClean pins the other half of the
// equivalence: with the honest sub-quorum abstention rule, the same plan
// is safe on both substrates — islands abstain instead of deciding.
func TestCrossValidateHonestRuleClean(t *testing.T) {
	plan := SplitBrainPlan(4, 1)
	v, err := CrossValidate(crossCfg(false), 11, plan, crossNet())
	if err != nil {
		t.Fatalf("CrossValidate: %v", err)
	}
	if !v.Agree {
		t.Fatalf("substrates disagree: %s", v)
	}
	if len(v.Virtual) != 0 || len(v.Net) != 0 {
		t.Fatalf("honest rule should be clean on both substrates: %s", v)
	}
}

// TestCrossValidateDeterministicPerSeed runs the socket side twice and
// requires identical verdicts — the proxy's per-link frame indexing at
// work.
func TestCrossValidateDeterministicPerSeed(t *testing.T) {
	plan := SplitBrainPlan(4, 7)
	a, err := CrossValidate(crossCfg(true), 11, plan, crossNet())
	if err != nil {
		t.Fatalf("first: %v", err)
	}
	b, err := CrossValidate(crossCfg(true), 11, plan, crossNet())
	if err != nil {
		t.Fatalf("second: %v", err)
	}
	if kindSet(a.Net) != kindSet(b.Net) || a.Agree != b.Agree {
		t.Fatalf("verdict not deterministic:\n%s\n%s", a, b)
	}
}
