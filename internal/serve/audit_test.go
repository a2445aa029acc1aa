package serve

import (
	"reflect"
	"testing"
)

func TestAuditor(t *testing.T) {
	submitted := map[string]map[int]bool{
		"a": {1: true, 2: true, 3: true},
		"b": {7: true},
		"c": {5: true},
	}
	a := NewAuditor()
	a.Note("a", "r1", 1)
	a.Note("a", "r1", 1) // an idempotent retry: same value, no finding
	a.Note("a", "r2", 2)
	a.Note("a", "", 3) // a journal entry: counts for the instance only
	a.Note("b", "r3", 7)
	a.Note("b", "r3", 8) // one request, two answers; 8 was never submitted
	a.Note("c", "r4", 5)

	if inst, widest := a.Decided(); inst != 3 || widest != 3 {
		t.Fatalf("Decided = (%d, %d), want (3, 3)", inst, widest)
	}
	// One violation per instance, the first clause broken; the values of
	// a k-set clause ascend.
	type finding struct{ kind, detail string }
	findings := func(k int) []finding {
		var out []finding
		for _, v := range a.Violations(submitted, k) {
			out = append(out, finding{v.Kind, v.Detail()})
		}
		return out
	}
	want := []finding{
		{"idempotency", "request r3 received 2 distinct decided values [7 8] across retries"},
		{"k-agreement", "instance a: 3 distinct decisions [1 2 3] exceed k=2"},
		{"validity", "instance b: decided 8, not an input"},
	}
	if got := findings(2); !reflect.DeepEqual(got, want) {
		t.Fatalf("Violations(k=2)\n got %+v\nwant %+v", got, want)
	}
	// With k = 3 instance a is within bounds; the rest stands.
	if got := findings(3); !reflect.DeepEqual(got, []finding{want[0], want[2]}) {
		t.Fatalf("Violations(k=3) = %+v", got)
	}
	// With k = 1 instance b breaks both promises and validity leads; an
	// instance nobody submitted to is reported at its lowest value.
	a.Note("d", "r5", 9)
	a.Note("d", "r6", 4)
	want[1].detail = "instance a: 3 distinct decisions [1 2 3] exceed k=1"
	want = append(want, finding{"validity", "instance d: decided 4, not an input"})
	if got := findings(1); !reflect.DeepEqual(got, want) {
		t.Fatalf("Violations(k=1)\n got %+v\nwant %+v", got, want)
	}
	if got := NewAuditor().Violations(submitted, 1); got != nil {
		t.Fatalf("an empty auditor reported %+v", got)
	}
}
