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
	want := []AuditViolation{
		{Kind: "idempotency", Req: "r3", Values: []int{7, 8}},
		{Kind: "k-agreement", Inst: "a", Values: []int{1, 2, 3}},
		{Kind: "validity", Inst: "b", Values: []int{8}},
	}
	if got := a.Violations(submitted, 2); !reflect.DeepEqual(got, want) {
		t.Fatalf("Violations(k=2)\n got %+v\nwant %+v", got, want)
	}
	// With k = 3 instance a is within bounds; the rest stands.
	if got := a.Violations(submitted, 3); !reflect.DeepEqual(got, append(want[:1:1], want[2])) {
		t.Fatalf("Violations(k=3) = %+v", got)
	}
	// With k = 1 instance b breaks both promises: k-agreement leads, then
	// every value nobody submitted, ascending.
	a.Note("d", "r5", 9) // an instance nobody submitted to
	a.Note("d", "r6", 4)
	want = []AuditViolation{
		want[0], want[1],
		{Kind: "k-agreement", Inst: "b", Values: []int{7, 8}},
		want[2],
		{Kind: "k-agreement", Inst: "d", Values: []int{4, 9}},
		{Kind: "validity", Inst: "d", Values: []int{4}},
		{Kind: "validity", Inst: "d", Values: []int{9}},
	}
	if got := a.Violations(submitted, 1); !reflect.DeepEqual(got, want) {
		t.Fatalf("Violations(k=1)\n got %+v\nwant %+v", got, want)
	}
	if got, want := want[2].Detail(1), "instance b decided 2 distinct values [7 8] > k=1"; got != want {
		t.Fatalf("Detail = %q, want %q", got, want)
	}
	if got := NewAuditor().Violations(submitted, 1); got != nil {
		t.Fatalf("an empty auditor reported %+v", got)
	}
}
