package core

import (
	"errors"
	"fmt"
	"math/bits"
	"time"

	"repro/internal/obs"
)

// ErrMaxRounds is returned by Run when the round limit is reached before
// every live process has decided.
var ErrMaxRounds = errors.New("core: round limit reached before all processes decided")

// Result is the outcome of one execution.
type Result struct {
	// Outputs maps each decided process to its decision value.
	Outputs map[PID]Value

	// DecidedAt maps each decided process to the round in which it
	// decided.
	DecidedAt map[PID]int

	// Rounds is the number of rounds executed.
	Rounds int

	// Crashed is the set of processes the adversary crashed.
	Crashed Set

	// Trace is the recorded execution, present unless disabled.
	Trace *Trace
}

// DistinctOutputs returns the number of distinct decision values. Values are
// compared with == via an any-keyed map, so decision values must be
// comparable.
func (r *Result) DistinctOutputs() int {
	seen := make(map[Value]struct{}, len(r.Outputs))
	for _, v := range r.Outputs {
		seen[v] = struct{}{}
	}
	return len(seen)
}

// MaxDecisionRound returns the latest round at which any process decided, or
// 0 if nothing decided.
func (r *Result) MaxDecisionRound() int {
	m := 0
	for _, rd := range r.DecidedAt {
		if rd > m {
			m = rd
		}
	}
	return m
}

type engineOptions struct {
	maxRounds int
	trace     bool
	observer  obs.Observer
	clock     func() time.Time
	ckDir     string
	ckOpts    CheckpointOptions
	haltAfter int
}

// Option configures Run.
type Option func(*engineOptions)

// WithMaxRounds bounds the execution length; Run returns ErrMaxRounds if some
// live process has not decided by then. The default is 10000.
func WithMaxRounds(n int) Option {
	return func(o *engineOptions) { o.maxRounds = n }
}

// WithoutTrace disables trace recording (useful in benchmarks).
func WithoutTrace() Option {
	return func(o *engineOptions) { o.trace = false }
}

// Run executes the algorithm produced by factory under the given adversary in
// a lock-step, deterministic fashion: each round the oracle plans D sets and
// crashes, live processes emit, and each live process is delivered the
// messages of S(i,r) together with D(i,r).
//
// Run returns an error if the oracle produces an invalid plan (one violating
// S(i,r) ∪ D(i,r) = S, suspecting everybody, delivering from a process that
// did not emit, or failing to suspect a crashed process) or if the round
// limit is hit first.
func Run(n int, inputs []Value, factory Factory, oracle Oracle, opts ...Option) (res *Result, err error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: invalid process count %d", n)
	}
	if len(inputs) != n {
		return nil, fmt.Errorf("core: %d inputs for %d processes", len(inputs), n)
	}
	var e execution
	e.begin(n, inputs, factory, oracle, foldOptions(opts))
	defer func() { e.end(res, err) }()
	if e.o.ckDir != "" {
		ck, err := newCheckpointer(e.o.ckDir, e.o.ckOpts, inputs)
		if err != nil {
			return nil, err
		}
		e.ck = ck
	}
	return e.run()
}

// execution is one engine run in flight: the loop state shared by Run and
// Resume.
type execution struct {
	n      int
	o      engineOptions
	ob     obs.Observer
	now    func() time.Time
	oracle Oracle
	procs  []Algorithm
	res    *Result
	active Set
	full   Set
	ck     *checkpointer
	replay int // rounds 1..replay re-execute a checkpoint log (Resume): not journaled again
}

// foldOptions applies opts over the engine defaults.
func foldOptions(opts []Option) engineOptions {
	o := engineOptions{maxRounds: 10000, trace: true}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// begin is the prelude Run and Resume share: it defaults the observer and
// the clock, opens the observer's run (the caller defers end), builds the n
// processes from their inputs and starts from an empty Result with everyone
// active.
func (e *execution) begin(n int, inputs []Value, factory Factory, oracle Oracle, o engineOptions) {
	*e = execution{
		n:      n,
		o:      o,
		ob:     o.observer,
		now:    o.clock,
		oracle: oracle,
		procs:  make([]Algorithm, n),
		active: FullSet(n),
		full:   FullSet(n),
		res: &Result{
			Outputs:   make(map[PID]Value, n),
			DecidedAt: make(map[PID]int, n),
			Crashed:   NewSet(n),
		},
	}
	if e.ob == nil {
		e.ob = DefaultObserver()
	}
	if e.now == nil {
		e.now = time.Now
	}
	if e.ob != nil {
		e.ob.RunStart(n)
	}
	for i := range e.procs {
		e.procs[i] = factory(PID(i), n, inputs[i])
	}
	if o.trace {
		e.res.Trace = NewTrace(n)
	}
}

// end closes the observer's run begin opened.
func (e *execution) end(res *Result, err error) {
	if e.ob == nil {
		return
	}
	rounds, decided := 0, 0
	if res != nil {
		rounds, decided = res.Rounds, len(res.DecidedAt)
	}
	e.ob.RunEnd(rounds, decided, err)
}

// run executes rounds 1..maxRounds and settles the checkpoint log: a clean
// finish gets an end-of-log marker, every other exit (halt, plan error)
// leaves the log resumable.
func (e *execution) run() (*Result, error) {
	res, err := e.loop()
	if e.ck != nil {
		if err == nil {
			if werr := e.ck.writeEnd(); werr != nil {
				err = werr
			}
		}
		if cerr := e.ck.log.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return res, err
}

// loop is the lock-step round loop.
//
// The loop allocates per-execution scratch once and reuses it every round:
// the emitted-message slice, the delivery map and suspect set handed to
// Algorithm.Deliver (both engine-owned — see the Algorithm contract), the
// deliver working set, and the plan-validation sets. Fresh sets are cloned
// only into RoundRecord, and only when recording (trace or checkpoint) is
// on, so an untraced run's round cost is dominated by the algorithm and the
// oracle, not the engine.
func (e *execution) loop() (*Result, error) {
	o, ob, now, res := e.o, e.ob, e.now, e.res
	n, full := e.n, e.full

	// Phase timings cost two clock reads per phase; skip them when the
	// attached observer declares it never consumes them (obs.Base and
	// anything embedding it without overriding Phase). Phase hooks still
	// fire, with a zero duration.
	timed := ob != nil && obs.NeedsPhaseTimings(ob)

	var (
		msgs    = make([]Message, n)       // round-r emissions, indexed by PID
		in      = make(map[PID]Message, n) // delivery map passed to Deliver
		deliver = NewSet(n)                // S(p,r) working set
		susp    = NewSet(n)                // D(p,r) copy passed to Deliver
		vs      = newPlanScratch(n)        // validatePlan working sets
	)

	record := o.trace || e.ck != nil
	for r := 1; r <= o.maxRounds; r++ {
		var phaseStart time.Time
		if ob != nil {
			ob.RoundStart(r, e.active.Count())
			if timed {
				phaseStart = now()
			}
		}
		var roundDur time.Duration // Σ of the three timed phases, no extra clock reads
		plan := e.oracle.Plan(r, e.active)
		if ob != nil {
			var d time.Duration
			if timed {
				d = now().Sub(phaseStart)
			}
			roundDur += d
			ob.Phase(r, "plan", d)
		}
		if err := validatePlanIn(n, r, e.active, &plan, vs); err != nil {
			return nil, err
		}
		e.active.DiffInto(plan.Crashes)
		res.Crashed.UnionInto(plan.Crashes)
		if ob != nil && !plan.Crashes.Empty() {
			ob.Crash(r, observerInts(plan.Crashes))
		}
		if e.active.Empty() {
			res.Rounds = r
			return res, fmt.Errorf("core: all processes crashed at round %d", r)
		}

		if timed {
			phaseStart = now()
		}
		clear(msgs)
		e.active.ForEach(func(p PID) {
			msgs[p] = e.procs[p].Emit(r)
			if ob != nil {
				ob.Emit(r, int(p))
			}
		})
		if ob != nil {
			var d time.Duration
			if timed {
				d = now().Sub(phaseStart)
			}
			roundDur += d
			ob.Phase(r, "emit", d)
			if timed {
				phaseStart = now()
			}
		}

		var rec RoundRecord
		if record {
			rec = RoundRecord{
				R:        r,
				Suspects: make([]Set, n),
				Deliver:  make([]Set, n),
				Active:   e.active.Clone(),
				Crashed:  full.Diff(e.active),
			}
		}

		var deliverErr error
		e.active.ForEach(func(p PID) {
			plan.deliverSetInto(&deliver, p, e.active)
			if !deliver.UnionEquals(plan.Suspects[p], full) {
				deliverErr = &PlanError{Round: r, Proc: p, Reason: "S(i,r) ∪ D(i,r) ≠ S"}
				return
			}
			clear(in)
			deliver.ForEach(func(q PID) { in[q] = msgs[q] })
			susp.CopyFrom(plan.Suspects[p])
			out, decided := e.procs[p].Deliver(r, in, susp)
			if ob != nil {
				ob.Suspect(r, int(p), observerInts(plan.Suspects[p]))
				ob.Deliver(r, int(p), deliver.Count(), plan.Suspects[p].Count())
			}
			if decided {
				if _, done := res.DecidedAt[p]; !done {
					res.Outputs[p] = out
					res.DecidedAt[p] = r
					if ob != nil {
						ob.Decide(r, int(p))
					}
				}
			}
			if record {
				rec.Suspects[p] = plan.Suspects[p].Clone()
				rec.Deliver[p] = deliver.Clone()
			}
		})
		if ob != nil {
			var d time.Duration
			if timed {
				d = now().Sub(phaseStart)
			}
			roundDur += d
			ob.Phase(r, "deliver", d)
			// The synthetic whole-round phase is the sum of the three
			// timed phases — deliberately no extra clock reads.
			ob.Phase(r, "round", roundDur)
		}
		if deliverErr != nil {
			return nil, deliverErr
		}
		if record {
			for i := 0; i < n; i++ {
				if rec.Suspects[i].words == nil {
					rec.Suspects[i] = NewSet(n)
					rec.Deliver[i] = NewSet(n)
				}
			}
			if o.trace {
				res.Trace.Append(rec)
			}
		}
		if e.ck != nil && r > e.replay {
			if err := e.ck.endOfRound(&rec); err != nil {
				return res, err
			}
		}

		res.Rounds = r
		if o.haltAfter > 0 && e.halts(r) {
			return res, &HaltError{Round: r, Dir: o.ckDir}
		}
		if allDecided(e.active, res.DecidedAt) {
			return res, nil
		}
	}
	return res, ErrMaxRounds
}

// TraceOracle replays a recorded trace as an adversary: round r's plan is
// the trace's round-r record (suspect sets, plus crashes inferred from the
// Active transitions). Rounds beyond the trace replay its final record.
// Replaying lets any algorithm be run against an explicitly enumerated
// family of detector behaviours — the basis of exhaustive theorem checking.
func TraceOracle(t *Trace) Oracle {
	return OracleFunc(func(r int, active Set) RoundPlan {
		if r > t.Len() {
			r = t.Len()
		}
		rec := t.Round(r)
		if rec == nil {
			// Empty trace: behave benignly.
			sus := make([]Set, t.N)
			for i := range sus {
				sus[i] = NewSet(t.N)
			}
			return RoundPlan{Suspects: sus}
		}
		sus := make([]Set, t.N)
		for i := range sus {
			sus[i] = rec.Suspects[i].Clone()
		}
		// Crash whoever the trace stops running.
		crashes := active.Diff(rec.Active)
		return RoundPlan{Suspects: sus, Crashes: crashes}
	})
}

// CollectTrace runs a no-op full-information algorithm under the oracle for
// exactly rounds rounds and returns the recorded trace. It is the bridge from
// an adversary to the predicate checkers: the trace is the adversary's
// behaviour, independent of any algorithm. Extra options (e.g. WithObserver)
// are applied before the round bound, which always wins.
func CollectTrace(n, rounds int, oracle Oracle, opts ...Option) (*Trace, error) {
	inputs := make([]Value, n)
	res, err := Run(n, inputs, func(me PID, n int, input Value) Algorithm {
		return nopAlgorithm{}
	}, oracle, append(append([]Option{}, opts...), WithMaxRounds(rounds))...)
	if err != nil && !errors.Is(err, ErrMaxRounds) {
		return nil, err
	}
	return res.Trace, nil
}

type nopAlgorithm struct{}

func (nopAlgorithm) Emit(r int) Message { return nil }

func (nopAlgorithm) Deliver(r int, msgs map[PID]Message, suspects Set) (Value, bool) {
	return nil, false
}

// deliverSet computes S(p,r) for this plan: the explicit override when given,
// otherwise every active process not suspected by p.
func (pl *RoundPlan) deliverSet(p PID, active Set) Set {
	if pl.Deliver != nil && pl.Deliver[p].words != nil {
		return pl.Deliver[p].Clone()
	}
	return active.Diff(pl.Suspects[p])
}

// deliverSetInto is deliverSet into caller-owned storage: it overwrites dst
// with S(p,r) without allocating.
func (pl *RoundPlan) deliverSetInto(dst *Set, p PID, active Set) {
	if pl.Deliver != nil && pl.Deliver[p].words != nil {
		dst.CopyFrom(pl.Deliver[p])
		return
	}
	dst.CopyFrom(active)
	dst.DiffInto(pl.Suspects[p])
}

// planScratch is the working storage validatePlanIn reuses across rounds.
// empty is handed out as the normalized Crashes set of plans that carry
// none, so it must never be mutated.
type planScratch struct {
	full, live, dead, empty Set
}

func newPlanScratch(n int) *planScratch {
	return &planScratch{full: FullSet(n), live: NewSet(n), dead: NewSet(n), empty: NewSet(n)}
}

// validatePlan checks and normalizes one round plan with fresh working
// sets; the engine loop uses validatePlanIn with per-execution scratch.
func validatePlan(n, r int, active Set, plan *RoundPlan) error {
	return validatePlanIn(n, r, active, plan, newPlanScratch(n))
}

func validatePlanIn(n, r int, active Set, plan *RoundPlan, vs *planScratch) error {
	if len(plan.Suspects) != n {
		return &PlanError{Round: r, Proc: -1, Reason: fmt.Sprintf("plan has %d suspect sets, want %d", len(plan.Suspects), n)}
	}
	if plan.Crashes.words == nil {
		plan.Crashes = vs.empty
	}
	live := vs.live
	live.CopyFrom(active)
	live.DiffInto(plan.Crashes)
	dead := vs.dead
	dead.CopyFrom(vs.full)
	dead.DiffInto(live)
	var err error
	live.ForEach(func(p PID) {
		if err != nil {
			return
		}
		d := plan.Suspects[p]
		if d.words == nil {
			err = &PlanError{Round: r, Proc: p, Reason: "nil suspect set"}
			return
		}
		if d.Count() == n {
			err = &PlanError{Round: r, Proc: p, Reason: "D(i,r) = S is forbidden"}
			return
		}
		if !dead.IsSubset(d) {
			err = &PlanError{Round: r, Proc: p, Reason: fmt.Sprintf("crashed processes %s not all suspected (D=%s)", dead, d)}
			return
		}
		if plan.Deliver != nil {
			s := plan.Deliver[p]
			if s.words == nil {
				return // engine falls back to active \ D for this process
			}
			if !s.IsSubset(live) {
				err = &PlanError{Round: r, Proc: p, Reason: "delivery from a process that did not emit"}
				return
			}
		}
	})
	return err
}

// allDecided reports whether every active process has decided, returning at
// the first undecided one.
func allDecided(active Set, decidedAt map[PID]int) bool {
	for wi, w := range active.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if _, ok := decidedAt[PID(wi*64+b)]; !ok {
				return false
			}
			w &^= 1 << uint(b)
		}
	}
	return true
}
