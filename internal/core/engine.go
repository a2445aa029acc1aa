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
// limit is hit first. Run is a fresh Runner's Run: what it returns is the
// caller's.
func Run(n int, inputs []Value, factory Factory, oracle Oracle, opts ...Option) (*Result, error) {
	return new(Runner).Run(n, inputs, factory, oracle, opts...)
}

// Runner runs executions one after another and keeps their storage: the
// working sets, the processes and the emission vector, the Result and its
// maps, the trace, and one block of record rows per round index. Its first
// run allocates what Run does; a later one over the same n and no more
// rounds allocates none of the engine's own, only its algorithm's and its
// oracle's.
//
// What Runner.Run returns is borrowed, like an oracle's plan: the Result,
// its sets and its Trace are the Runner's until its next Run, which
// rewrites them in place. A caller that keeps one past that copies it, and
// a trace the Runner recorded must not be replayed (TraceOracle) by the
// same Runner. The zero Runner is ready for use; a Runner serves one
// goroutine at a time.
type Runner struct {
	n      int
	o      *engineOptions // folded into in place by every run
	ob     obs.Observer
	now    func() time.Time
	oracle Oracle
	ck     *checkpointer
	replay int // rounds 1..replay re-execute a checkpoint log (Resume): not journaled again

	// Kept from run to run.
	procs  []Algorithm
	msgs   []Message // round-r emissions, indexed by PID
	res    *Result
	trace  *Trace
	rec    RoundRecord // the record of an untraced round (checkpointing)
	active Set
	full   Set
	// validatePlan's scratch, and S(p,r) and the D(p,r) copy Deliver gets
	live, dead, deliver, susp Set
}

// Run executes one run as the package-level Run does, over this Runner's
// storage.
func (e *Runner) Run(n int, inputs []Value, factory Factory, oracle Oracle, opts ...Option) (res *Result, err error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: invalid process count %d", n)
	}
	if len(inputs) != n {
		return nil, fmt.Errorf("core: %d inputs for %d processes", len(inputs), n)
	}
	e.fold(opts)
	e.begin(n, inputs, factory, oracle)
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

// fold applies opts over the engine defaults, into options the Runner
// keeps: the first run allocates them, as every Option may retain them.
func (e *Runner) fold(opts []Option) *engineOptions {
	if e.o == nil {
		e.o = new(engineOptions)
	}
	*e.o = engineOptions{maxRounds: 10000, trace: true}
	for _, opt := range opts {
		opt(e.o)
	}
	return e.o
}

// begin is the prelude Run and Resume share, over the options fold left:
// it defaults the observer and the clock, opens the observer's run (the
// caller defers end), builds the n processes from their inputs and starts
// from an empty Result with everyone active. The working sets are rows of
// one word slab, carved when n changes; the Result, its maps and the trace
// are the previous run's, emptied.
func (e *Runner) begin(n int, inputs []Value, factory Factory, oracle Oracle) {
	o := e.o
	e.n, e.ob, e.now, e.oracle, e.ck, e.replay = n, o.observer, o.clock, oracle, nil, 0
	if e.res == nil {
		e.res = &Result{Outputs: make(map[PID]Value, n), DecidedAt: make(map[PID]int, n)}
	}
	res := e.res
	clear(res.Outputs)
	clear(res.DecidedAt)
	res.Rounds, res.Trace = 0, nil
	if e.full.n != n {
		var ws [7]Set
		Carve(n, ws[:])
		e.active, e.full, res.Crashed, e.live, e.dead, e.deliver, e.susp = ws[0], ws[1], ws[2], ws[3], ws[4], ws[5], ws[6]
		e.full.fill()
	}
	e.active.fill()
	res.Crashed.Clear()
	if cap(e.procs) < n {
		e.procs, e.msgs = make([]Algorithm, n), make([]Message, n)
	}
	e.procs, e.msgs = e.procs[:n], e.msgs[:n]
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
		if e.trace == nil {
			e.trace = NewTrace(n)
		}
		e.trace.N, e.trace.Rounds = n, e.trace.Rounds[:0]
		if cap(e.trace.Rounds) < o.traceLen {
			e.trace.Rounds = make([]RoundRecord, 0, o.traceLen)
		}
		res.Trace = e.trace
	}
}

// end closes the observer's run begin opened.
func (e *Runner) end(res *Result, err error) {
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
func (e *Runner) phase(r int, name string, start time.Time) time.Duration {
	d := e.now().Sub(start)
	e.ob.Observe(obs.Event{Kind: obs.Phase, R: r, P: -1, Phase: name, Dur: d})
	return d
}

// run executes rounds 1..maxRounds and settles the checkpoint log: a clean
// finish gets an end-of-log marker, every other exit (halt, plan error)
// leaves the log resumable.
func (e *Runner) run() (*Result, error) {
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
// the rows of one word slab (record). An untraced round allocates nothing,
// so its cost is the algorithm's and the oracle's, not the engine's.
func (e *Runner) loop() (*Result, error) {
	o, ob, now, res := e.o, e.ob, e.now, e.res
	deliver, susp, msgs := e.deliver, e.susp, e.msgs

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
			rec = e.record(r)
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

// record returns round r's record, Active and Crashed filled and every
// other set empty. A traced round takes the rows its round index had in
// the Runner's previous traced run (the trace's Rounds array keeps them
// past its length), an untraced one the Runner's one record; rows over
// another n, or none yet, are carved afresh. The engine writes only the
// active processes' rows, so a reused block is cleared first.
func (e *Runner) record(r int) RoundRecord {
	var rec RoundRecord
	if t := e.res.Trace; t == nil {
		rec = e.rec
	} else if len(t.Rounds) < cap(t.Rounds) {
		rec = t.Rounds[:len(t.Rounds)+1][len(t.Rounds)]
	}
	if rec.Active.n == e.n {
		rec.R = r
		for p := range rec.Suspects {
			rec.Suspects[p].Clear()
			rec.Deliver[p].Clear()
		}
	} else {
		rec = NewRoundRecord(r, e.n)
	}
	if e.res.Trace == nil {
		e.rec = rec
	}
	rec.Active.CopyFrom(e.active)
	rec.Crashed.fill()
	rec.Crashed.DiffInto(e.active)
	return rec
}

// NewRoundRecord returns round r's record over n processes with every set
// empty: its 2n+2 sets are the rows of one word slab.
func NewRoundRecord(r, n int) RoundRecord {
	var ac [2]Set
	rows := make([]Set, 2*n)
	Carve(n, rows, ac[:])
	return RoundRecord{R: r, Suspects: rows[:n:n], Deliver: rows[n:], Active: ac[0], Crashed: ac[1]}
}

// TraceOracle replays a recorded trace as an adversary: round r's plan is
// the trace's round-r record (suspect sets, plus crashes inferred from the
// Active transitions). Rounds beyond the trace replay its final record.
// Replaying lets any algorithm be run against an explicitly enumerated
// family of detector behaviours — the basis of exhaustive theorem checking.
// The plan's rows are the oracle's own, refilled every round.
func TraceOracle(t *Trace) Oracle {
	rows := NewSets(t.N, t.N+1)
	sus, crashes := rows[:t.N:t.N], rows[t.N]
	return OracleFunc(func(r int, active Set) RoundPlan {
		if r > t.Len() {
			r = t.Len()
		}
		crashes.Clear()
		rec := t.Round(r)
		if rec == nil { // empty trace: behave benignly
			for i := range sus {
				sus[i].Clear()
			}
			return RoundPlan{Suspects: sus, Crashes: crashes}
		}
		for i := range sus {
			sus[i].CopyFrom(rec.Suspects[i])
		}
		// Crash whoever the trace stops running.
		crashes.CopyFrom(active)
		crashes.DiffInto(rec.Active)
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
