package recovery

import (
	"fmt"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/predicate"
	"repro/internal/task"
)

// AuditError reports the first safety violation the post-hoc audit finds in
// a crash-and-recover execution.
type AuditError struct {
	// Kind names the violated property: "trace", "budget", "validity",
	// "k-agreement", or "durability".
	Kind string

	// Proc is the offending process, or -1 when the property is global.
	Proc core.PID

	// Detail is a human-readable account.
	Detail string
}

func (e *AuditError) Error() string {
	if e.Proc >= 0 {
		return fmt.Sprintf("recovery audit: %s violation at p%d: %s", e.Kind, e.Proc, e.Detail)
	}
	return fmt.Sprintf("recovery audit: %s violation: %s", e.Kind, e.Detail)
}

// Audit checks a finished crash-and-recover run against the model:
//
//  1. trace — the induced trace satisfies the structural RRFD invariants
//     S(i,r) ∪ D(i,r) = S and D(i,r) ≠ S;
//  2. budget — every completed round respects the eq. (3) per-round budget
//     |D(i,r)| ≤ f;
//  3. validity — every decision is one of the proposals;
//  4. k-agreement — at most f+1 distinct decisions (the one-round quorum
//     rule's bound, which recovery must not loosen);
//  5. durability — crash-recovery's log-before-act rule: every decision is
//     justified by a durable final-round quorum view in the decider's
//     journal, and equals the min of that view. A process that decides from
//     state a crash destroyed — the planted amnesia bug — fails here even on
//     schedules where the stale value happens to agree with everyone else.
func Audit(out *Outcome, n, f, rounds int) error {
	if err := out.Trace.Validate(); err != nil {
		return &AuditError{Kind: "trace", Proc: -1, Detail: err.Error()}
	}
	budget := predicate.PerRoundBudget(f)
	if err := budget.Check(out.Trace); err != nil {
		return &AuditError{Kind: "budget", Proc: -1, Detail: err.Error()}
	}

	if v, ok := task.KSet(f+1, task.Inputs(out.Proposals), n, task.ByPID(out.Decisions), nil).Err().(*task.Violation); ok {
		return &AuditError{Kind: v.Clause, Proc: core.PID(v.Index), Detail: v.Error()}
	}

	for i := 0; i < n; i++ {
		p := core.PID(i)
		d, decided := out.Decisions[p]
		if !decided {
			continue
		}
		st := out.Journals[p].Recover()
		justified, quorate := agreement.QuorumMin(st.LastView, n-f)
		switch {
		case st.LastViewRound != rounds:
			return &AuditError{Kind: "durability", Proc: p,
				Detail: fmt.Sprintf("decided %d but the durable view is for round %d, not the final round %d", d, st.LastViewRound, rounds)}
		case !quorate:
			return &AuditError{Kind: "durability", Proc: p,
				Detail: fmt.Sprintf("decided %d from a durable view of %d < n-f = %d messages", d, len(st.LastView), n-f)}
		case justified != d:
			return &AuditError{Kind: "durability", Proc: p,
				Detail: fmt.Sprintf("decided %d but the durable final view justifies %d", d, justified)}
		}
	}
	return nil
}
