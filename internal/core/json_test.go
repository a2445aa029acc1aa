package core

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/obs"
)

// countingObserver is a minimal observer used to prove observation leaves
// traces untouched.
type countingObserver struct{}

func (countingObserver) Observe(obs.Event) {}

func TestSetJSONRoundTrip(t *testing.T) {
	orig := SetOf(70, 0, 63, 64, 69)
	b, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var back Set
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Equal(orig) || back.Universe() != 70 {
		t.Fatalf("round trip: %s (n=%d)", back, back.Universe())
	}
	if !strings.Contains(string(b), `"members":[0,63,64,69]`) {
		t.Fatalf("wire form: %s", b)
	}
}

func TestSetJSONRejectsOutOfRange(t *testing.T) {
	var s Set
	if err := json.Unmarshal([]byte(`{"n":3,"members":[5]}`), &s); err == nil {
		t.Fatal("out-of-range member accepted")
	}
}

func TestTraceJSONRoundTrip(t *testing.T) {
	n := 4
	oracle := OracleFunc(func(r int, active Set) RoundPlan {
		sus := make([]Set, n)
		crashes := NewSet(n)
		if r == 2 {
			crashes.Add(3)
		}
		for i := range sus {
			sus[i] = NewSet(n)
			if r >= 2 {
				sus[i].Add(3)
			}
		}
		return RoundPlan{Suspects: sus, Crashes: crashes}
	})
	orig, err := CollectTrace(n, 3, oracle)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var back Trace
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.N != n || back.Len() != orig.Len() {
		t.Fatalf("shape: n=%d len=%d", back.N, back.Len())
	}
	for r := 1; r <= orig.Len(); r++ {
		a, c := orig.Round(r), back.Round(r)
		if !a.Active.Equal(c.Active) || !a.Crashed.Equal(c.Crashed) {
			t.Fatalf("round %d: active/crashed differ", r)
		}
		for i := 0; i < n; i++ {
			if !a.Suspects[i].Equal(c.Suspects[i]) || !a.Deliver[i].Equal(c.Deliver[i]) {
				t.Fatalf("round %d proc %d: sets differ", r, i)
			}
		}
	}
	// The deserialized trace must drive the engine like the original.
	replayed, err := CollectTrace(n, 3, TraceOracle(&back))
	if err != nil {
		t.Fatal(err)
	}
	if !replayed.Round(2).Crashed.Has(3) {
		t.Fatal("replayed trace lost the crash")
	}
}

// remarshal decodes b into a Trace and re-encodes it, requiring the result
// to be byte-identical — the round-trip stability contract replay tooling
// (diffing archived traces) depends on.
func remarshal(t *testing.T, b []byte) {
	t.Helper()
	var back Trace
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(b) {
		t.Fatalf("re-marshal not byte-identical:\n first: %s\nsecond: %s", b, again)
	}
}

func TestTraceJSONRoundTripEmpty(t *testing.T) {
	b, err := json.Marshal(NewTrace(3))
	if err != nil {
		t.Fatal(err)
	}
	remarshal(t, b)
	var back Trace
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.N != 3 || back.Len() != 0 {
		t.Fatalf("empty trace round trip: n=%d len=%d", back.N, back.Len())
	}
}

func TestTraceJSONRoundTripCrashedInRound1(t *testing.T) {
	n := 3
	oracle := OracleFunc(func(r int, active Set) RoundPlan {
		sus := make([]Set, n)
		crashes := NewSet(n)
		if r == 1 {
			crashes.Add(0) // crash before anyone ever emits
		}
		for i := range sus {
			sus[i] = SetOf(n, 0)
		}
		return RoundPlan{Suspects: sus, Crashes: crashes}
	})
	orig, err := CollectTrace(n, 2, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if !orig.Round(1).Crashed.Has(0) {
		t.Fatal("round-1 crash not recorded")
	}
	b, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	remarshal(t, b)
	var back Trace
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Round(1).Crashed.Has(0) || back.Round(1).Active.Has(0) {
		t.Fatal("round-1 crash lost in round trip")
	}
	// The crashed process never ran, so its per-process sets must be the
	// canonical empty set after the round trip too.
	if !back.Round(1).Suspects[0].Empty() || !back.Round(1).Deliver[0].Empty() {
		t.Fatal("crashed process's sets not empty after round trip")
	}
}

func TestTraceJSONRoundTripWithObserver(t *testing.T) {
	n := 4
	oracle := OracleFunc(func(r int, active Set) RoundPlan {
		sus := make([]Set, n)
		for i := range sus {
			sus[i] = SetOf(n, PID((r+i)%n))
		}
		return RoundPlan{Suspects: sus}
	})
	plain, err := CollectTrace(n, 3, oracle)
	if err != nil {
		t.Fatal(err)
	}
	observed, err := CollectTrace(n, 3, oracle, WithObserver(countingObserver{}))
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(observed)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("observer perturbed the trace JSON:\n%s\n%s", a, b)
	}
	remarshal(t, b)
}

func TestTraceJSONRejectsMalformed(t *testing.T) {
	var tr Trace
	if err := json.Unmarshal([]byte(`{"n":3,"rounds":[{"r":1,"suspects":[],"deliver":[]}]}`), &tr); err == nil {
		t.Fatal("mismatched suspect-set count accepted")
	}
	if err := json.Unmarshal([]byte(`{bad json`), &tr); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}
