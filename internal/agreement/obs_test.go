package agreement

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/obs"
)

func TestOneRoundKSetObservedEmitsChoices(t *testing.T) {
	n, k := 6, 2
	m := obs.NewMetrics()
	inputs := identityInputs(n)
	res, err := core.Run(n, inputs, OneRoundKSetObserved(m),
		adversary.KSetUncertainty(n, k, 7), core.WithObserver(m))
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(res, inputs, k, 1); err != nil {
		t.Fatal(err)
	}
	ev := m.Snapshot().Events
	// Every live process chooses exactly once, in round 1.
	if got := ev["agreement.kset_choose"]; got != int64(n-res.Crashed.Count()) {
		t.Fatalf("kset_choose events = %d, want %d (events %v)", got, n-res.Crashed.Count(), ev)
	}
}

// TestObservedVariantsMatchUnobserved replays the same adversary against
// the observed and unobserved factories and requires identical decisions:
// observation must not change algorithm behaviour.
func TestObservedVariantsMatchUnobserved(t *testing.T) {
	n, k := 6, 2
	inputs := identityInputs(n)
	for seed := int64(0); seed < 10; seed++ {
		plain, err := core.Run(n, inputs, OneRoundKSet(), adversary.KSetUncertainty(n, k, seed))
		if err != nil {
			t.Fatal(err)
		}
		observed, err := core.Run(n, inputs, OneRoundKSetObserved(obs.NewMetrics()),
			adversary.KSetUncertainty(n, k, seed))
		if err != nil {
			t.Fatal(err)
		}
		for p, v := range plain.Outputs {
			if observed.Outputs[p] != v {
				t.Fatalf("seed %d: p%d decided %v observed vs %v plain", seed, p, observed.Outputs[p], v)
			}
		}
	}
}
