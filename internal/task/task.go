// Package task formalizes the paper's notion of solvability: "an RRFD
// system satisfying predicate P solves a task T if there exists an
// emit-receive format algorithm such that, for any D(i,r) family satisfying
// P, if processes start with inputs from T, then eventually processes
// commit to outputs that satisfy T's input/output requirements."
//
// KSet is the one place the k-set agreement input/output relation is
// evaluated — validity, k-agreement, termination — always by ascending
// index, so a verdict is a function of the execution and never of map
// order. Its Violation is the one place a broken clause is put into words:
// an auditor adds only its own context (which instance, which process) and
// the clauses that are its own.
package task

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/predicate"
)

// Verdict is the k-set agreement relation evaluated on one execution.
type Verdict[V comparable] struct {
	// Distinct is the decided values, each once, first seen first; Excess
	// says there are more than k of them (k-agreement).
	Distinct []V
	Excess   bool

	k       int
	invalid int // 1 + the lowest index that decided a non-input; 0 for none
	value   V   // what that index decided
	idle    int // 1 + the lowest non-exempt index that did not decide; 0 for none
}

// KSet evaluates k-set agreement over indices 0..n-1, in that order:
// decided(i) is index i's decision, if it made one. A nil input asks for
// no validity clause, a nil exempt (the crashed processes) for no
// termination clause, and k = n for no bound: n indices decide at most n
// values.
func KSet[V comparable](k int, input func(V) bool, n int, decided func(i int) (V, bool), exempt func(i int) bool) Verdict[V] {
	vd := Verdict[V]{k: k, Distinct: make([]V, 0, min(n, k+1))}
	for i := 0; i < n; i++ {
		v, ok := decided(i)
		switch {
		case ok:
			if vd.invalid == 0 && input != nil && !input(v) {
				vd.invalid, vd.value = i+1, v
			}
			if !slices.Contains(vd.Distinct, v) {
				vd.Distinct = append(vd.Distinct, v)
			}
		case vd.idle == 0 && exempt != nil && !exempt(i):
			vd.idle = i + 1
		}
	}
	vd.Excess = len(vd.Distinct) > k
	return vd
}

// Err returns nil when the verdict holds, and otherwise a *Violation
// naming the first clause broken, in KSet's order: validity, k-agreement,
// termination.
func (vd Verdict[V]) Err() error {
	switch {
	case vd.invalid > 0:
		return &Violation{Clause: "validity", Index: vd.invalid - 1, value: vd.value}
	case vd.Excess:
		return &Violation{Clause: "k-agreement", Index: -1, value: vd.Distinct, n: len(vd.Distinct), k: vd.k}
	case vd.idle > 0:
		return &Violation{Clause: "termination", Index: vd.idle - 1}
	}
	return nil
}

// Violation is a broken k-set clause. Its sentence names values, never
// indices: an auditor whose indices are processes names the process from
// Index. The sentence is rendered only by Error.
type Violation struct {
	// Clause is "validity", "k-agreement" or "termination".
	Clause string

	// Index is the lowest offending index, or -1 for k-agreement.
	Index int

	value any // validity: the decided value; k-agreement: the distinct values
	n, k  int // k-agreement: how many distinct values, and the bound
}

func (v *Violation) Error() string {
	switch v.Clause {
	case "validity":
		return fmt.Sprintf("decided %v, not an input", v.value)
	case "k-agreement":
		return fmt.Sprintf("%d distinct decisions %v exceed k=%d", v.n, v.value, v.k)
	}
	return "did not decide"
}

// byProcess wraps a violation of a verdict whose indices are processes,
// naming the process.
func byProcess(prefix string, err error) error {
	if i := err.(*Violation).Index; i >= 0 {
		return fmt.Errorf("%s: process %d %w", prefix, i, err)
	}
	return fmt.Errorf("%s: %w", prefix, err)
}

// Inputs returns the membership test of an input vector.
func Inputs[V comparable](inputs []V) func(V) bool {
	set := make(map[V]bool, len(inputs))
	for _, v := range inputs {
		set[v] = true
	}
	return func(v V) bool { return set[v] }
}

// ByPID reads a per-process map in KSet's index order: ByPID(m).At is
// KSet's decided argument. The method value is built in the caller's
// frame and KSet keeps no reader, so the read allocates nothing.
func ByPID[V any](m map[core.PID]V) PIDMap[V] { return m }

// PIDMap is a per-process map; see ByPID.
type PIDMap[V any] map[core.PID]V

// At is index i's entry, if it has one.
func (m PIDMap[V]) At(i int) (V, bool) {
	v, ok := m[core.PID(i)]
	return v, ok
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

// GradedValue is an adopt-commit task output.
type GradedValue struct {
	Commit bool
	Value  core.Value
}

// AdoptCommit checks the adopt-commit task of §4.2 over outputs of the form
// GradedValue: validity (output values are inputs) and termination, which
// are k-set agreement's on the carried values, then convergence (unanimous
// input forces unanimous commit) and agreement (a commit forces every
// output value).
func AdoptCommit(a Assignment) error {
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
	if err := KSet(n, Inputs(a.Inputs), n, func(i int) (core.Value, bool) {
		g, ok := at(i)
		return g.Value, ok
	}, In(a.Crashed)).Err(); err != nil {
		return byProcess("adopt-commit", err)
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
	return nil
}

// OracleGen produces, per seed, an adversary intended to satisfy the
// system predicate — the "for any D(i,r) family" quantifier, sampled.
type OracleGen func(seed int64) core.Oracle

// Report summarizes a Solves run.
type Report struct {
	Predicate string
	Trials    int

	// MaxRounds is the latest decision round seen across trials.
	MaxRounds int
}

// Solves checks, over trials seeded adversaries, that the algorithm solves
// k-set agreement (k = 1: consensus) in the system defined by the
// predicate: every adversary's trace must satisfy the predicate (otherwise
// the generator is at fault and the error says so), and every execution's
// outputs must satisfy the task, crashed processes exempt from termination.
func Solves(k, n int, inputs []core.Value, factory core.Factory,
	p predicate.P, gen OracleGen, trials int, opts ...core.Option) (*Report, error) {
	rep := &Report{Predicate: p.Name, Trials: trials}
	input := Inputs(inputs)
	var runner core.Runner // each Result is audited before the next run
	for seed := int64(0); seed < int64(trials); seed++ {
		res, err := runner.Run(n, inputs, factory, gen(seed), opts...)
		if err != nil {
			return nil, fmt.Errorf("seed %d: %w", seed, err)
		}
		if err := p.Check(res.Trace); err != nil {
			return nil, fmt.Errorf("seed %d: adversary outside the system: %w", seed, err)
		}
		if err := KSet(k, input, len(inputs), ByPID(res.Outputs).At, In(res.Crashed)).Err(); err != nil {
			return nil, byProcess(fmt.Sprintf("seed %d: %d-set agreement", seed, k), err)
		}
		if r := res.MaxDecisionRound(); r > rep.MaxRounds {
			rep.MaxRounds = r
		}
	}
	return rep, nil
}
