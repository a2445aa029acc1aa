package mc

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/predicate"
	tasks "repro/internal/task"
)

// Property is a named predicate over a finished execution. Check returns
// nil when the execution satisfies the property and a descriptive error
// when it does not; the error becomes the counterexample's Err.
type Property struct {
	Name  string
	Check func(res *core.Result) error
}

// PropertyError wraps a property violation with the property's name. It
// unwraps to the underlying violation (e.g. a *predicate.Violation).
type PropertyError struct {
	Name string
	Err  error
}

// Error implements error.
func (e *PropertyError) Error() string {
	return fmt.Sprintf("property %s violated: %v", e.Name, e.Err)
}

// Unwrap exposes the underlying violation to errors.Is/As.
func (e *PropertyError) Unwrap() error { return e.Err }

// Validity holds when every decision value is some process's input.
//
// Validity is not inlined: its Check closure, compiled into a caller's
// package, hands ByPID's reader to the generic task.KSet as escaping, one
// allocation a checked schedule.
//
//go:noinline
func Validity(inputs []core.Value) Property {
	n, input := len(inputs), tasks.Inputs(inputs)
	return Property{Name: "validity", Check: func(res *core.Result) error {
		if v, ok := tasks.KSet(n, input, n, tasks.ByPID(res.Outputs).At, nil).Err().(*tasks.Violation); ok {
			return fmt.Errorf("process %d %w", v.Index, v)
		}
		return nil
	}}
}

// KAgreement holds when at most k distinct values are decided.
func KAgreement(k int) Property {
	return Property{Name: fmt.Sprintf("%d-agreement", k), Check: func(res *core.Result) error {
		return tasks.KSet(k, nil, res.Crashed.Universe(), tasks.ByPID(res.Outputs).At, nil).Err()
	}}
}

// TraceSatisfies lifts a model predicate (eq. (1)–(4), k-set, ...) to a
// Property over the recorded trace — useful to assert that an enumerated
// adversary stays inside its model, or to explore one model while
// checking membership in another.
func TraceSatisfies(p predicate.P) Property {
	return Property{Name: p.Name, Check: func(res *core.Result) error {
		if res.Trace == nil {
			return fmt.Errorf("predicate %s needs a trace, execution recorded none", p.Name)
		}
		return p.Check(res.Trace)
	}}
}

// Fingerprinter is implemented by algorithms and oracles that can hash
// their complete mutable state, enabling state-hash pruning: CheckRun
// Marks the combined fingerprint before each adversary choice when every
// participant implements it (and RunSpec.Mark opts in).
type Fingerprinter interface {
	Fingerprint() uint64
}

// RunSpec binds an algorithm, an adversary and properties into a run
// function for Explore: every schedule builds a fresh system, executes it
// under the Ctx-driven oracle, and checks each property.
type RunSpec struct {
	// N and Inputs size the system, as in core.Run.
	N      int
	Inputs []core.Value

	// Factory builds the algorithm under test.
	Factory core.Factory

	// Oracle builds the adversary for one schedule. It is called once per
	// schedule with the schedule's Ctx; adversary enumerators (e.g.
	// adversary.Enumerated) draw their decisions from it.
	Oracle func(ctx *Ctx) core.Oracle

	// MaxRounds bounds each execution; 0 means 32. Hitting the bound is a
	// violation (the schedule's system never terminated), reported like
	// any property failure.
	MaxRounds int

	// Props are checked, in order, against every completed execution.
	Props []Property

	// Model, when non-nil, is a compiled model predicate (e.g. from
	// hoalg.Compile) checked against every schedule's trace after Props —
	// the membership assertion that an enumerated adversary stays inside
	// its model. Trace predicates are path properties, so a spec with a
	// Model must leave Mark off (see the Mark soundness note below).
	Model *predicate.P

	// Mark opts in to state-hash pruning: before each adversary choice
	// the combined fingerprint of round, active set, every algorithm and
	// the oracle is Marked. It is only sound when (a) every algorithm and
	// the oracle implement Fingerprinter over their complete state —
	// otherwise marking silently stays off — and (b) every Prop is a
	// function of the final state (validity, k-agreement), not of the
	// path (decide-within, trace predicates). See DESIGN §12.
	Mark bool

	// Observer, when non-nil, is attached to every schedule's engine
	// execution (core.WithObserver) — distinct from Options.Observer,
	// which sees only the exploration's own mc.* events. Attaching an
	// engine observer to a full exploration is expensive and rarely
	// wanted; the intended use is rendering one Replay of a
	// counterexample's choice string (e.g. with obs/trace.Tracer).
	Observer obs.Observer
}

// CheckRun compiles the spec into a run function for Explore or Replay.
//
// An exploration task runs its schedules on one core.Runner, one
// markingOracle and one factory, kept on the task (schedule): a schedule
// allocates only what its algorithms and its oracle do. The Result a
// Property checks is the Runner's, so a Check reads it only during the
// call and copies what its error keeps.
func CheckRun(s RunSpec) func(*Ctx) error {
	maxRounds := s.MaxRounds
	if maxRounds == 0 {
		maxRounds = 32
	}
	props := s.Props
	if s.Model != nil {
		props = append(append([]Property(nil), s.Props...), TraceSatisfies(*s.Model))
	}
	runOpts := []core.Option{core.WithMaxRounds(maxRounds)}
	if s.Observer != nil {
		runOpts = append(runOpts, core.WithObserver(s.Observer))
	}
	spec := &s
	return func(ctx *Ctx) error {
		sc := ctx.schedule(spec)
		sc.mo.ctx, sc.mo.inner, sc.mo.algs = ctx, s.Oracle(ctx), sc.mo.algs[:0]
		res, err := sc.runner.Run(s.N, s.Inputs, sc.factory, &sc.mo, runOpts...)
		if err != nil {
			return fmt.Errorf("execution failed: %w", err)
		}
		for _, p := range props {
			if err := p.Check(res); err != nil {
				return &PropertyError{Name: p.Name, Err: err}
			}
		}
		return nil
	}
}

// schedule is the storage a CheckRun run function keeps across one task's
// schedules: the Runner, the markingOracle and the factory that fills its
// algs, sized to N once.
type schedule struct {
	spec    *RunSpec
	runner  core.Runner
	mo      markingOracle
	factory core.Factory
}

// schedule returns spec's storage: the task's own, or a fresh one under
// Replay or when the task's run function checks another spec too.
func (c *Ctx) schedule(spec *RunSpec) *schedule {
	if c.t != nil && c.t.sched != nil && c.t.sched.spec == spec {
		return c.t.sched
	}
	sc := &schedule{spec: spec, mo: markingOracle{mark: spec.Mark, algs: make([]core.Algorithm, 0, spec.N)}}
	sc.factory = func(me core.PID, n int, input core.Value) core.Algorithm {
		a := spec.Factory(me, n, input)
		sc.mo.algs = append(sc.mo.algs, a)
		return a
	}
	if c.t != nil {
		c.t.sched = sc
	}
	return sc
}

// markingOracle wraps the schedule's oracle to Mark the system
// fingerprint immediately before each adversary choice (the Plan call
// consumes the mark at its first Choose).
type markingOracle struct {
	ctx   *Ctx
	inner core.Oracle
	algs  []core.Algorithm
	mark  bool
}

func (m *markingOracle) Plan(r int, active core.Set) core.RoundPlan {
	if m.mark {
		if h, ok := m.fingerprint(r, active); ok {
			m.ctx.Mark(h)
		}
	}
	return m.inner.Plan(r, active)
}

func (m *markingOracle) fingerprint(r int, active core.Set) (uint64, bool) {
	h := uint64(1469598103934665603)
	mix := func(v uint64) {
		h = (h ^ v) * 1099511628211
	}
	mix(uint64(r))
	active.ForEach(func(p core.PID) { mix(uint64(p) + 1) })
	for _, a := range m.algs {
		fp, ok := a.(Fingerprinter)
		if !ok {
			return 0, false
		}
		mix(fp.Fingerprint())
	}
	fp, ok := m.inner.(Fingerprinter)
	if !ok {
		return 0, false
	}
	mix(fp.Fingerprint())
	return h, true
}
