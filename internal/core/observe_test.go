package core

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/obs"
)

// crashyOracle crashes process n-1 in round 2 and has everyone suspect it
// from then on; otherwise benign.
func crashyOracle(n int) Oracle {
	return OracleFunc(func(r int, active Set) RoundPlan {
		sus := make([]Set, n)
		crashes := NewSet(n)
		if r == 2 {
			crashes.Add(PID(n - 1))
		}
		for i := range sus {
			sus[i] = NewSet(n)
			if r >= 2 {
				sus[i].Add(PID(n - 1))
			}
		}
		return RoundPlan{Suspects: sus, Crashes: crashes}
	})
}

func TestRunObserverMatchesTrace(t *testing.T) {
	n := 5
	m := obs.NewMetrics()
	inputs := make([]Value, n)
	for i := range inputs {
		inputs[i] = i
	}
	res, err := Run(n, inputs, newEchoFactory(4), crashyOracle(n), WithObserver(m))
	if err != nil {
		t.Fatal(err)
	}
	s := m.Snapshot()
	if s.Runs != 1 {
		t.Fatalf("runs = %d", s.Runs)
	}
	if int(s.Rounds) != res.Trace.Len() {
		t.Fatalf("observer rounds %d, trace %d", s.Rounds, res.Trace.Len())
	}
	// Suspicions must equal Σ_r Σ_{i active} |D(i,r)| from the trace.
	var wantSus, wantDeliver int
	for r := 1; r <= res.Trace.Len(); r++ {
		rec := res.Trace.Round(r)
		rec.Active.ForEach(func(p PID) {
			wantSus += rec.Suspects[p].Count()
			wantDeliver += rec.Deliver[p].Count()
		})
	}
	if int(s.SuspicionsTotal) != wantSus {
		t.Fatalf("suspicions %d, trace says %d", s.SuspicionsTotal, wantSus)
	}
	if int(s.MessagesDelivered) != wantDeliver {
		t.Fatalf("delivered %d, trace says %d", s.MessagesDelivered, wantDeliver)
	}
	if int(s.Decisions) != len(res.DecidedAt) {
		t.Fatalf("decisions %d, result has %d", s.Decisions, len(res.DecidedAt))
	}
	if s.Crashes != 1 {
		t.Fatalf("crashes = %d", s.Crashes)
	}
	for p, r := range res.DecidedAt {
		_ = p
		if s.RoundsToDecision[r] == 0 {
			t.Fatalf("rounds_to_decision missing round %d: %v", r, s.RoundsToDecision)
		}
	}
}

// TestRunObserverDoesNotPerturbTrace runs the same system with and without
// an observer and requires byte-identical trace JSON: observation must be
// side-effect free.
func TestRunObserverDoesNotPerturbTrace(t *testing.T) {
	n := 4
	inputs := make([]Value, n)
	plain, err := Run(n, inputs, newEchoFactory(3), crashyOracle(n))
	if err != nil {
		t.Fatal(err)
	}
	observed, err := Run(n, inputs, newEchoFactory(3), crashyOracle(n), WithObserver(obs.NewMetrics()))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(plain.Trace)
	b, _ := json.Marshal(observed.Trace)
	if string(a) != string(b) {
		t.Fatalf("observer changed the trace:\n%s\n%s", a, b)
	}
}

func TestRunObserverFakeClock(t *testing.T) {
	n := 3
	var tick int64
	fake := func() time.Time {
		tick++
		return time.Unix(0, tick*1000) // each clock read advances 1µs
	}
	m := obs.NewMetrics()
	inputs := make([]Value, n)
	_, err := Run(n, inputs, newEchoFactory(2), crashyOracle(n), WithObserver(m), WithClock(fake))
	if err != nil {
		t.Fatal(err)
	}
	s := m.Snapshot()
	// Every phase spans exactly one clock advance of 1µs under the fake,
	// and each round sums its three.
	for _, phase := range []string{"plan", "emit", "deliver"} {
		if s.PhaseMeanNanos[phase] != 1000 {
			t.Fatalf("phase %s mean %v ns, want 1000 (fake clock)", phase, s.PhaseMeanNanos[phase])
		}
	}
	if s.PhaseMeanNanos["round"] != 3000 {
		t.Fatalf("round mean %v ns, want 3000 (fake clock)", s.PhaseMeanNanos["round"])
	}
}

func TestRunEndReportsError(t *testing.T) {
	n := 3
	m := obs.NewMetrics()
	inputs := make([]Value, n)
	// newEchoFactory decides at round 5 but the round budget is 2.
	_, err := Run(n, inputs, newEchoFactory(5), crashyOracle(n), WithObserver(m), WithMaxRounds(2))
	if err != ErrMaxRounds {
		t.Fatalf("err = %v", err)
	}
	if got := m.Snapshot().RunErrors; got != 1 {
		t.Fatalf("run_errors = %d", got)
	}
}

func TestDefaultObserver(t *testing.T) {
	m := obs.NewMetrics()
	SetDefaultObserver(m)
	defer SetDefaultObserver(nil)
	if DefaultObserver() == nil {
		t.Fatal("default observer not installed")
	}
	n := 3
	inputs := make([]Value, n)
	if _, err := Run(n, inputs, newEchoFactory(2), crashyOracle(n)); err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot().Runs; got != 1 {
		t.Fatalf("default observer saw %d runs", got)
	}
	// An explicit observer takes precedence over the default.
	m2 := obs.NewMetrics()
	if _, err := Run(n, inputs, newEchoFactory(2), crashyOracle(n), WithObserver(m2)); err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot().Runs; got != 1 {
		t.Fatalf("default observer saw the explicitly-observed run (runs=%d)", got)
	}
	if got := m2.Snapshot().Runs; got != 1 {
		t.Fatalf("explicit observer saw %d runs", got)
	}
	SetDefaultObserver(nil)
	if DefaultObserver() != nil {
		t.Fatal("default observer not uninstalled")
	}
}

func TestCollectTraceWithObserver(t *testing.T) {
	n := 4
	m := obs.NewMetrics()
	tr, err := CollectTrace(n, 3, crashyOracle(n), WithObserver(m))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 3 {
		t.Fatalf("trace len %d", tr.Len())
	}
	if got := m.Snapshot().Rounds; got != 3 {
		t.Fatalf("observer rounds %d", got)
	}
}

// TestObservingAllocatesNothingPerEvent: on BenchmarkObservedRun's workload
// (n=16, 10 rounds of the echo algorithm, benign oracle) a run observed by
// Metrics allocates at most 2 more than an unobserved one — an event that
// escaped to the heap would cost one per event, hundreds per run.
func TestObservingAllocatesNothingPerEvent(t *testing.T) {
	const n, rounds = 16, 10
	inputs := make([]Value, n)
	oracle := OracleFunc(func(r int, active Set) RoundPlan {
		sus := make([]Set, n)
		for i := range sus {
			sus[i] = NewSet(n)
		}
		return RoundPlan{Suspects: sus}
	})
	allocs := func(opts ...Option) float64 {
		opts = append([]Option{WithoutTrace()}, opts...)
		return testing.AllocsPerRun(20, func() {
			if _, err := Run(n, inputs, newEchoFactory(rounds), oracle, opts...); err != nil {
				t.Fatal(err)
			}
		})
	}
	if off, on := allocs(), allocs(WithObserver(obs.NewMetrics())); on > off+2 {
		t.Fatalf("%.0f allocations observed, %.0f unobserved: want at most 2 more", on, off)
	}
}
