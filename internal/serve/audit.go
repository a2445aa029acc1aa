package serve

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/task"
)

// Auditor checks reported decisions against the service's client-visible
// promises: a request ID never sees two values (idempotency), an instance
// never decides more than k values (k-agreement), and every decided value
// was submitted to its instance (validity). The load generator and the
// kill-and-recover campaign both feed one through Load.Tally.
type Auditor struct {
	byReq, byInst map[string]map[int]bool
}

// NewAuditor returns an empty auditor.
func NewAuditor() *Auditor {
	return &Auditor{byReq: map[string]map[int]bool{}, byInst: map[string]map[int]bool{}}
}

// Note records that instance inst was reported decided as val in answer
// to request req ("" for a journal entry, which answers no request).
func (a *Auditor) Note(inst, req string, val int) {
	note := func(m map[string]map[int]bool, key string) {
		if m[key] == nil {
			m[key] = map[int]bool{}
		}
		m[key][val] = true
	}
	if req != "" {
		note(a.byReq, req)
	}
	note(a.byInst, inst)
}

// Decided returns how many instances were reported decided and the most
// distinct values any one of them was reported with.
func (a *Auditor) Decided() (instances, widest int) {
	for _, vals := range a.byInst {
		widest = max(widest, len(vals))
	}
	return len(a.byInst), widest
}

// AuditViolation is one broken promise: "idempotency" (Req saw Values,
// ascending), or the first k-set clause instance Inst broke, named by Kind
// and worded by Err. An instance's verdict runs over its decided values
// ascending, so Err names values, never processes.
type AuditViolation struct {
	Kind      string
	Inst, Req string
	Values    []int
	Err       error
}

// Detail words the violation without its Kind.
func (v AuditViolation) Detail() string {
	if v.Kind == "idempotency" {
		return fmt.Sprintf("request %s received %d distinct decided values %v across retries", v.Req, len(v.Values), v.Values)
	}
	return fmt.Sprintf("instance %s: %v", v.Inst, v.Err)
}

// Violations audits everything noted so far against the values submitted
// per instance and the bound k, ordered by request, then by instance, one
// violation — the first clause broken — per instance.
func (a *Auditor) Violations(submitted map[string]map[int]bool, k int) []AuditViolation {
	var out []AuditViolation
	for _, req := range sortedKeys(a.byReq) {
		if vals := a.byReq[req]; len(vals) > 1 {
			out = append(out, AuditViolation{Kind: "idempotency", Req: req, Values: sortedKeys(vals)})
		}
	}
	for _, inst := range sortedKeys(a.byInst) {
		vals, valid := sortedKeys(a.byInst[inst]), submitted[inst]
		if v, ok := task.KSet(k, func(v int) bool { return valid[v] }, len(vals),
			func(i int) (int, bool) { return vals[i], true }, nil).Err().(*task.Violation); ok {
			out = append(out, AuditViolation{Kind: v.Clause, Inst: inst, Err: v})
		}
	}
	return out
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
