// Package task formalizes the paper's notion of solvability: "an RRFD
// system satisfying predicate P solves a task T if there exists an
// emit-receive format algorithm such that, for any D(i,r) family satisfying
// P, if processes start with inputs from T, then eventually processes
// commit to outputs that satisfy T's input/output requirements."
//
// KSet is the one place the k-set agreement input/output relation is
// evaluated — validity, k-agreement, termination — always by ascending
// index, so a verdict is a function of the execution and never of map
// order. Every audit in the repository words KSet's verdict its own way
// and adds its own clauses: the Tasks below (and Solves, which quantifies
// them over seeded adversaries), agreement.Validate, the mc properties
// Validity and KAgreement, chaos's check, recovery.Audit,
// serve.Auditor.Violations, fleet.Audit and the rrfdsim TCP parent.
package task

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/predicate"
)

// Offender is an index whose decided value is not an input.
type Offender[V comparable] struct {
	Index int
	Value V
}

// Verdict is the k-set agreement relation evaluated on one execution.
// KSet formats nothing: callers word the clauses they asked for.
type Verdict[V comparable] struct {
	// Invalid lists, by ascending index, the deciders of a value outside
	// the inputs (validity).
	Invalid []Offender[V]

	// Distinct is the decided values, each once, first seen first; Excess
	// says there are more than k of them (k-agreement).
	Distinct []V
	Excess   bool

	// Undecided lists, ascending, the non-exempt indices that did not
	// decide (termination).
	Undecided []int
}

// KSet evaluates k-set agreement over indices 0..n-1, in that order:
// decided(i) is index i's decision, if it made one. A nil input asks for
// no validity clause, a nil exempt (the crashed processes) for no
// termination clause, and k = n for no bound: n indices decide at most n
// values.
func KSet[V comparable](k int, input func(V) bool, n int, decided func(i int) (V, bool), exempt func(i int) bool) Verdict[V] {
	var vd Verdict[V]
	for i := 0; i < n; i++ {
		v, ok := decided(i)
		switch {
		case ok:
			if input != nil && !input(v) {
				vd.Invalid = append(vd.Invalid, Offender[V]{i, v})
			}
			if !slices.Contains(vd.Distinct, v) {
				vd.Distinct = append(vd.Distinct, v)
			}
		case exempt != nil && !exempt(i):
			vd.Undecided = append(vd.Undecided, i)
		}
	}
	vd.Excess = len(vd.Distinct) > k
	return vd
}

// Inputs returns the membership test of an input vector.
func Inputs[V comparable](inputs []V) func(V) bool {
	set := make(map[V]bool, len(inputs))
	for _, v := range inputs {
		set[v] = true
	}
	return func(v V) bool { return set[v] }
}

// ByPID reads a per-process map in KSet's index order.
func ByPID[V any](m map[core.PID]V) func(int) (V, bool) {
	return func(i int) (V, bool) {
		v, ok := m[core.PID(i)]
		return v, ok
	}
}

// In is a process set as KSet's exempt argument.
func In(s core.Set) func(int) bool {
	return func(i int) bool { return s.Has(core.PID(i)) }
}

// Assignment is one execution's input/output pair: Outputs[p] is present
// only for processes that decided; processes in Crashed are exempt from
// termination.
type Assignment struct {
	Inputs  []core.Value
	Outputs map[core.PID]core.Value
	Crashed core.Set
}

// Task is a distributed task: a relation between input and output vectors.
type Task interface {
	// Name identifies the task.
	Name() string

	// Check returns nil iff the assignment satisfies the task's
	// input/output relation (including termination of non-crashed
	// processes).
	Check(a Assignment) error
}

// kSet is k-set agreement (§3): outputs are inputs, and at most k distinct
// values are chosen. k = 1 is consensus.
type kSet struct {
	k int
}

// KSetAgreement returns the k-set agreement task; Consensus returns its
// k = 1 instance.
func KSetAgreement(k int) Task { return kSet{k: k} }

// Consensus returns the consensus task.
func Consensus() Task { return kSet{k: 1} }

func (t kSet) Name() string {
	if t.k == 1 {
		return "consensus"
	}
	return fmt.Sprintf("%d-set agreement", t.k)
}

func (t kSet) Check(a Assignment) error {
	switch vd := KSet(t.k, Inputs(a.Inputs), len(a.Inputs), ByPID(a.Outputs), In(a.Crashed)); {
	case len(vd.Invalid) > 0:
		return fmt.Errorf("task %s: process %d decided %v, not an input", t.Name(), vd.Invalid[0].Index, vd.Invalid[0].Value)
	case vd.Excess:
		return fmt.Errorf("task %s: %d distinct outputs", t.Name(), len(vd.Distinct))
	case len(vd.Undecided) > 0:
		return fmt.Errorf("task %s: live process %d did not decide", t.Name(), vd.Undecided[0])
	}
	return nil
}

// graded is the adopt-commit task of §4.2, viewed as a task over outputs of
// the form GradedValue.
type graded struct{}

// GradedValue is an adopt-commit task output.
type GradedValue struct {
	Commit bool
	Value  core.Value
}

// AdoptCommit returns the adopt-commit task: validity (output values are
// inputs), convergence (unanimous input forces unanimous commit), and
// agreement (a commit forces every output value).
func AdoptCommit() Task { return graded{} }

func (graded) Name() string { return "adopt-commit" }

func (graded) Check(a Assignment) error {
	n := len(a.Inputs)
	at := func(i int) (GradedValue, bool) {
		g, ok := a.Outputs[core.PID(i)].(GradedValue)
		return g, ok
	}
	for i := 0; i < n; i++ {
		if out, decided := a.Outputs[core.PID(i)]; decided {
			if _, ok := at(i); !ok {
				return fmt.Errorf("adopt-commit: process %d output %T, want GradedValue", i, out)
			}
		}
	}
	// Validity and termination are k-set agreement's, on the carried values.
	vd := KSet(n, Inputs(a.Inputs), n, func(i int) (core.Value, bool) {
		g, ok := at(i)
		return g.Value, ok
	}, In(a.Crashed))
	if len(vd.Invalid) > 0 {
		return fmt.Errorf("adopt-commit: process %d carries non-input %v", vd.Invalid[0].Index, vd.Invalid[0].Value)
	}
	unanimous := true
	for _, v := range a.Inputs {
		unanimous = unanimous && v == a.Inputs[0]
	}
	for p := 0; p < n; p++ {
		if g, ok := at(p); ok && unanimous && (!g.Commit || g.Value != a.Inputs[0]) {
			return fmt.Errorf("adopt-commit: unanimous input %v but process %d got %+v", a.Inputs[0], p, g)
		}
	}
	for p := 0; p < n; p++ {
		g, ok := at(p)
		if !ok || !g.Commit {
			continue
		}
		for q := 0; q < n; q++ {
			if g2, ok := at(q); ok && g2.Value != g.Value {
				return fmt.Errorf("adopt-commit: process %d committed %v, process %d holds %v",
					p, g.Value, q, g2.Value)
			}
		}
	}
	if len(vd.Undecided) > 0 {
		return fmt.Errorf("adopt-commit: live process %d did not decide", vd.Undecided[0])
	}
	return nil
}

// OracleGen produces, per seed, an adversary intended to satisfy the
// system predicate — the "for any D(i,r) family" quantifier, sampled.
type OracleGen func(seed int64) core.Oracle

// Report summarizes a Solves run.
type Report struct {
	Task      string
	Predicate string
	Trials    int

	// MaxRounds is the latest decision round seen across trials.
	MaxRounds int
}

// Solves checks, over trials seeded adversaries, that the algorithm solves
// the task in the system defined by the predicate: every adversary's trace
// must satisfy the predicate (otherwise the generator is at fault and the
// error says so), and every execution's outputs must satisfy the task.
func Solves(t Task, n int, inputs []core.Value, factory core.Factory,
	p predicate.P, gen OracleGen, trials int, opts ...core.Option) (*Report, error) {
	rep := &Report{Task: t.Name(), Predicate: p.Name, Trials: trials}
	for seed := int64(0); seed < int64(trials); seed++ {
		res, err := core.Run(n, inputs, factory, gen(seed), opts...)
		if err != nil {
			return nil, fmt.Errorf("task %s seed %d: %w", t.Name(), seed, err)
		}
		if err := p.Check(res.Trace); err != nil {
			return nil, fmt.Errorf("task %s seed %d: adversary outside the system: %w", t.Name(), seed, err)
		}
		if err := t.Check(Assignment{Inputs: inputs, Outputs: res.Outputs, Crashed: res.Crashed}); err != nil {
			return nil, fmt.Errorf("seed %d: %w", seed, err)
		}
		if r := res.MaxDecisionRound(); r > rep.MaxRounds {
			rep.MaxRounds = r
		}
	}
	return rep, nil
}
