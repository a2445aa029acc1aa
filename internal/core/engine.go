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
	traceLen  int // rounds the run is known to last: the trace's capacity
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
	// validatePlan's scratch, and S(p,r) and the D(p,r) copy Deliver gets
	live, dead, deliver, susp Set
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
// active. The run's working sets are rows of one word slab.
func (e *execution) begin(n int, inputs []Value, factory Factory, oracle Oracle, o engineOptions) {
	var ws [7]Set
	carve(n, ws[:])
	*e = execution{
		n:       n,
		o:       o,
		ob:      o.observer,
		now:     o.clock,
		oracle:  oracle,
		procs:   make([]Algorithm, n),
		active:  ws[0],
		full:    ws[1],
		live:    ws[3],
		dead:    ws[4],
		deliver: ws[5],
		susp:    ws[6],
		res: &Result{
			Outputs:   make(map[PID]Value, n),
			DecidedAt: make(map[PID]int, n),
			Crashed:   ws[2],
		},
	}
	e.full.fill()
	e.active.fill()
	if e.ob == nil {
		e.ob = DefaultObserver()
	}
	if e.now == nil {
		e.now = time.Now
	}
	if e.ob != nil {
		e.ob.Observe(obs.Event{Kind: obs.RunStart, R: -1, P: -1, N: n})
	}
	for i := range e.procs {
		e.procs[i] = factory(PID(i), n, inputs[i])
	}
	if o.trace {
		e.res.Trace = NewTrace(n)
		if o.traceLen > 0 {
			e.res.Trace.Rounds = make([]RoundRecord, 0, o.traceLen)
		}
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
	e.ob.Observe(obs.Event{Kind: obs.RunEnd, R: -1, P: -1, N: rounds, M: decided, Err: err})
}

// phase reports round r's phase that began at start, timed on the
// engine's clock, and returns its duration.
func (e *execution) phase(r int, name string, start time.Time) time.Duration {
	d := e.now().Sub(start)
	e.ob.Observe(obs.Event{Kind: obs.Phase, R: r, P: -1, Phase: name, Dur: d})
	return d
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
// A round builds nothing per process: each Deliver reads the round's
// emission vector through an Inbox over the S(p,r) scratch set, and when
// recording (trace or checkpoint) the round's 2n+2 sets are copied into
// the rows of one word slab. An untraced round allocates nothing, so its
// cost is the algorithm's and the oracle's, not the engine's.
func (e *execution) loop() (*Result, error) {
	o, ob, now, res := e.o, e.ob, e.now, e.res
	n := e.n
	deliver, susp := e.deliver, e.susp
	msgs := make([]Message, n) // round-r emissions, indexed by PID

	record := o.trace || e.ck != nil
	for r := 1; r <= o.maxRounds; r++ {
		var phaseStart time.Time
		if ob != nil {
			ob.Observe(obs.Event{Kind: obs.RoundStart, R: r, P: -1, N: e.active.Count()})
			phaseStart = now()
		}
		var roundDur time.Duration // Σ of the three timed phases, no extra clock reads
		plan := e.oracle.Plan(r, e.active)
		if ob != nil {
			roundDur += e.phase(r, "plan", phaseStart)
		}
		if err := validatePlan(r, e.active, &plan, e.full, e.live, e.dead); err != nil {
			return nil, err
		}
		e.active.DiffInto(plan.Crashes)
		res.Crashed.UnionInto(plan.Crashes)
		if ob != nil && !plan.Crashes.Empty() {
			ob.Observe(obs.Event{Kind: obs.Crash, R: r, P: -1, Members: observerInts(plan.Crashes)})
		}
		if e.active.Empty() {
			res.Rounds = r
			return res, fmt.Errorf("core: all processes crashed at round %d", r)
		}

		if ob != nil {
			phaseStart = now()
		}
		clear(msgs)
		e.active.ForEach(func(p PID) {
			msgs[p] = e.procs[p].Emit(r)
			if ob != nil {
				ob.Observe(obs.Event{Kind: obs.Emit, R: r, P: int(p)})
			}
		})
		if ob != nil {
			roundDur += e.phase(r, "emit", phaseStart)
			phaseStart = now()
		}

		var rec RoundRecord
		if record {
			rec = NewRoundRecord(r, n)
			rec.Active.CopyFrom(e.active)
			rec.Crashed.fill()
			rec.Crashed.DiffInto(e.active)
		}
		e.active.ForEach(func(p PID) {
			plan.deliverSetInto(&deliver, p, e.active)
			susp.CopyFrom(plan.Suspects[p])
			out, decided := e.procs[p].Deliver(r, Inbox{deliver, msgs}, susp)
			if ob != nil {
				ob.Observe(obs.Event{Kind: obs.Suspect, R: r, P: int(p), Members: observerInts(plan.Suspects[p])})
				ob.Observe(obs.Event{Kind: obs.Deliver, R: r, P: int(p), N: deliver.Count(), M: plan.Suspects[p].Count()})
			}
			if decided {
				if _, done := res.DecidedAt[p]; !done {
					res.Outputs[p] = out
					res.DecidedAt[p] = r
					if ob != nil {
						ob.Observe(obs.Event{Kind: obs.Decide, R: r, P: int(p)})
					}
				}
			}
			if record {
				rec.Suspects[p].CopyFrom(plan.Suspects[p])
				rec.Deliver[p].CopyFrom(deliver)
			}
		})
		if ob != nil {
			roundDur += e.phase(r, "deliver", phaseStart)
			// The synthetic whole-round phase is the sum of the three
			// timed phases — deliberately no extra clock reads.
			ob.Observe(obs.Event{Kind: obs.Phase, R: r, P: -1, Phase: "round", Dur: roundDur})
		}
		if o.trace {
			res.Trace.Append(rec)
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

// NewRoundRecord returns round r's record over n processes with every set
// empty: its 2n+2 sets are the rows of one word slab.
func NewRoundRecord(r, n int) RoundRecord {
	var ac [2]Set
	rows := make([]Set, 2*n)
	carve(n, rows, ac[:])
	return RoundRecord{R: r, Suspects: rows[:n:n], Deliver: rows[n:], Active: ac[0], Crashed: ac[1]}
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
			rec = &RoundRecord{Suspects: make([]Set, t.N), Active: active} // empty trace: behave benignly
		}
		sus := make([]Set, t.N)
		for i := range sus {
			sus[i] = NewSet(t.N)
			sus[i].CopyFrom(rec.Suspects[i])
		}
		// Crash whoever the trace stops running.
		return RoundPlan{Suspects: sus, Crashes: active.Diff(rec.Active)}
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
	}, oracle, append(append([]Option{}, opts...), WithMaxRounds(rounds), func(o *engineOptions) { o.traceLen = rounds })...)
	if err != nil && !errors.Is(err, ErrMaxRounds) {
		return nil, err
	}
	return res.Trace, nil
}

type nopAlgorithm struct{}

func (nopAlgorithm) Emit(r int) Message { return nil }

func (nopAlgorithm) Deliver(r int, msgs Inbox, suspects Set) (Value, bool) {
	return nil, false
}

// deliverSetInto overwrites dst with S(p,r) for this plan: the explicit
// override when given, otherwise every active process not suspected by p.
func (pl *RoundPlan) deliverSetInto(dst *Set, p PID, active Set) {
	if pl.Deliver != nil && pl.Deliver[p].words != nil {
		dst.CopyFrom(pl.Deliver[p])
		return
	}
	dst.CopyFrom(active)
	dst.DiffInto(pl.Suspects[p])
}

// validatePlan checks one round plan over the universe of full, stopping at
// the first offending process; live and dead are scratch it overwrites
// with the round's emitters and everyone else.
func validatePlan(r int, active Set, plan *RoundPlan, full, live, dead Set) error {
	n := full.n
	if len(plan.Suspects) != n {
		return &PlanError{Round: r, Proc: -1, Reason: fmt.Sprintf("plan has %d suspect sets, want %d", len(plan.Suspects), n)}
	}
	live.CopyFrom(active)
	live.DiffInto(plan.Crashes)
	dead.CopyFrom(full)
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
		// Without an override S(i,r) = live \ D(i,r), which covers S
		// once dead ⊆ D(i,r) over the same universe.
		s := live
		if plan.Deliver != nil && plan.Deliver[p].words != nil {
			s = plan.Deliver[p]
		}
		if !s.IsSubset(live) {
			err = &PlanError{Round: r, Proc: p, Reason: "delivery from a process that did not emit"}
			return
		}
		if !s.UnionEquals(d, full) {
			err = &PlanError{Round: r, Proc: p, Reason: "S(i,r) ∪ D(i,r) ≠ S"}
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
