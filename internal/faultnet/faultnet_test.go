package faultnet

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/msgnet"
)

func TestPlanString(t *testing.T) {
	p := Plan{Seed: 7, Components: []Component{
		{Kind: Drop, Rate: 0.3},
		{Kind: Partition, Groups: [][]core.PID{{0, 1}, {2}}, From: 10, Until: 50, Name: "split"},
	}}
	s := p.String()
	for _, want := range []string{"seed=7", "drop(30%)", "split{0,1|2}@[10,50)"} {
		if !strings.Contains(s, want) {
			t.Fatalf("plan %q lacks %q", s, want)
		}
	}
	if got := (Plan{Seed: 1}).String(); !strings.Contains(got, "fault-free") {
		t.Fatalf("empty plan renders %q", got)
	}
}

func TestWithoutComponent(t *testing.T) {
	p := Plan{Seed: 7, Components: []Component{
		{Kind: Drop, Rate: 0.1},
		{Kind: Delay, Rate: 0.2},
		{Kind: Duplicate, Rate: 0.3},
	}}
	q := p.WithoutComponent(1)
	if len(q.Components) != 2 || q.Components[0].Kind != Drop || q.Components[1].Kind != Duplicate {
		t.Fatalf("shrunk plan = %v", q.Components)
	}
	if len(p.Components) != 3 {
		t.Fatal("shrinking mutated the original plan")
	}
}

func TestPartitionWindow(t *testing.T) {
	inj := Plan{Seed: 1, Components: []Component{{
		Kind: Partition, Groups: [][]core.PID{{0}, {1}}, From: 10, Until: 20,
	}}}.Injector()
	drops := func(step int, from, to core.PID) bool {
		act := inj.OnSend(step, from, to)
		return len(act.Deliveries) == 0
	}
	if drops(5, 0, 1) {
		t.Fatal("partition active before From")
	}
	if !drops(10, 0, 1) || !drops(19, 1, 0) {
		t.Fatal("partition inactive inside [From, Until)")
	}
	if drops(20, 0, 1) {
		t.Fatal("partition did not heal at Until")
	}
	if drops(15, 0, 0) {
		t.Fatal("intra-group message dropped")
	}
	act := inj.OnSend(15, 0, 1)
	if act.Reason != "partition" {
		t.Fatalf("reason = %q, want partition", act.Reason)
	}
}

func TestSendOmissionOnlyHitsFaultySenders(t *testing.T) {
	inj := Plan{Seed: 1, Components: []Component{{
		Kind: SendOmission, Rate: 1, Senders: []core.PID{2},
	}}}.Injector()
	if act := inj.OnSend(0, 0, 1); len(act.Deliveries) == 0 {
		t.Fatal("correct sender's message omitted")
	}
	act := inj.OnSend(0, 2, 1)
	if len(act.Deliveries) != 0 || act.Reason != "omission" {
		t.Fatalf("faulty sender's message survived: %+v", act)
	}
}

func TestInjectorDeterministic(t *testing.T) {
	p := Plan{Seed: 42, Components: []Component{
		{Kind: Drop, Rate: 0.5},
		{Kind: Delay, Rate: 0.5, MaxDelay: 10},
		{Kind: Duplicate, Rate: 0.5, Copies: 2},
	}}
	sequence := func() []msgnet.FaultAction {
		inj := p.Injector()
		var out []msgnet.FaultAction
		for step := 0; step < 200; step++ {
			out = append(out, inj.OnSend(step, core.PID(step%3), core.PID((step+1)%3)))
		}
		return out
	}
	a, b := sequence(), sequence()
	for i := range a {
		if len(a[i].Deliveries) != len(b[i].Deliveries) || a[i].Reason != b[i].Reason {
			t.Fatalf("step %d: %+v vs %+v", i, a[i], b[i])
		}
		for j := range a[i].Deliveries {
			if a[i].Deliveries[j] != b[i].Deliveries[j] {
				t.Fatalf("step %d copy %d: %d vs %d", i, j, a[i].Deliveries[j], b[i].Deliveries[j])
			}
		}
	}
}

func TestRNGUniformish(t *testing.T) {
	r := NewRNG(123)
	var sum float64
	for i := 0; i < 10000; i++ {
		f := r.Float()
		if f < 0 || f >= 1 {
			t.Fatalf("Float() = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / 10000; mean < 0.45 || mean > 0.55 {
		t.Fatalf("mean = %v, wildly non-uniform", mean)
	}
	for i := 0; i < 100; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
	}
}

// TestLockStepReading: a rate-1.0 omitting sender is suspected by everyone
// but itself in every round, whatever the active set; noise leaves no mark.
func TestLockStepReading(t *testing.T) {
	const n, watchdog = 5, 1200
	oracle, err := Plan{Seed: 3, Components: []Component{
		{Kind: Delay, Rate: 0.5, MaxDelay: 8},
		{Kind: Duplicate, Rate: 0.3, Copies: 2},
		{Kind: SendOmission, Rate: 0, Senders: []core.PID{0}},
		{Kind: SendOmission, Rate: 1, Senders: []core.PID{1, 3, 9}},
	}}.LockStep(n, watchdog)
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= 3; r++ {
		plan := oracle.Plan(r, core.FullSet(n))
		if !plan.Crashes.Empty() || plan.Deliver != nil || len(plan.Suspects) != n {
			t.Fatalf("round %d plans crashes %s, deliveries %v, %d suspect sets", r, plan.Crashes, plan.Deliver, len(plan.Suspects))
		}
		for i, d := range plan.Suspects {
			want := core.SetOf(n, 1, 3)
			want.Remove(core.PID(i))
			if !d.Equal(want) {
				t.Fatalf("round %d: D(%d) = %s, want %s", r, i, d, want)
			}
		}
	}
}

// TestNoLockStepReading: a component whose effect depends on step timing
// leaves the plan without the reading, and the error names it.
func TestNoLockStepReading(t *testing.T) {
	const n, watchdog = 5, 1200
	for _, c := range []Component{
		{Kind: Drop, Rate: 0.3},
		{Kind: Partition, Groups: [][]core.PID{{0, 1}, {2}}, Until: 50},
		{Kind: SendOmission, Rate: 0.5, Senders: []core.PID{1}},
		{Kind: Delay, Rate: 0.2, MaxDelay: watchdog},
		{Kind: "reorder"},
	} {
		plan := Plan{Seed: 1, Components: []Component{{Kind: Duplicate, Rate: 0.1}, c}}
		oracle, err := plan.LockStep(n, watchdog)
		if err == nil || oracle != nil || !strings.Contains(err.Error(), c.String()) {
			t.Fatalf("%s: LockStep = (%v, %v), want an error naming %s", plan, oracle, err, c)
		}
	}
	// Delays add up along one copy's way: two that each stay under the
	// watchdog do not together.
	two := Plan{Components: []Component{{Kind: Delay, Rate: 1, MaxDelay: 700}, {Kind: Delay, Rate: 1, MaxDelay: 700}}}
	if _, err := two.LockStep(n, watchdog); err == nil {
		t.Fatalf("%s has a lock-step reading under a %d-step watchdog", two, watchdog)
	}
}
