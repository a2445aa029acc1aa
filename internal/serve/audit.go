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

// AuditViolation is one broken promise: "idempotency" (Req saw Values),
// "k-agreement" (Inst decided Values, more than k of them) or "validity"
// (Inst decided Values[0], which nobody submitted). Values ascend.
type AuditViolation struct {
	Kind      string
	Inst, Req string
	Values    []int
}

// Detail words the violation, without its Kind, against the bound k that
// Violations judged it by.
func (v AuditViolation) Detail(k int) string {
	switch v.Kind {
	case "idempotency":
		return fmt.Sprintf("request %s received %d distinct decided values %v across retries", v.Req, len(v.Values), v.Values)
	case "k-agreement":
		return fmt.Sprintf("instance %s decided %d distinct values %v > k=%d", v.Inst, len(v.Values), v.Values, k)
	default:
		return fmt.Sprintf("instance %s decided %d, which no client submitted", v.Inst, v.Values[0])
	}
}

// Violations audits everything noted so far against the values submitted
// per instance and the bound k, ordered by request, then by instance.
func (a *Auditor) Violations(submitted map[string]map[int]bool, k int) []AuditViolation {
	var out []AuditViolation
	for _, req := range sortedKeys(a.byReq) {
		if vals := a.byReq[req]; len(vals) > 1 {
			out = append(out, AuditViolation{Kind: "idempotency", Req: req, Values: sortedKeys(vals)})
		}
	}
	for _, inst := range sortedKeys(a.byInst) {
		vals, valid := sortedKeys(a.byInst[inst]), submitted[inst]
		vd := task.KSet(k, func(v int) bool { return valid[v] }, len(vals),
			func(i int) (int, bool) { return vals[i], true }, nil)
		if vd.Excess {
			out = append(out, AuditViolation{Kind: "k-agreement", Inst: inst, Values: vals})
		}
		for _, o := range vd.Invalid {
			out = append(out, AuditViolation{Kind: "validity", Inst: inst, Values: []int{o.Value}})
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
