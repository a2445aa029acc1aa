// Package chaos is the randomized robustness harness: it runs many seeded
// executions of the asynchronous k-set-agreement protocol over reliable
// links on a faulty substrate — each execution under a freshly randomized
// faultnet.Plan plus random crash failures — and checks the safety
// invariants that must survive any message-level mischief: validity,
// k-agreement, and (for stall-free executions) conformance of the induced
// RRFD trace to the eq. (3) asynchronous-model predicate.
//
// Every execution is reproducible from (Config.Seed, run index): on a
// violation the harness prints the scheduler seed, the fault plan, and the
// crash pattern, then delta-debugs the plan down to a minimal component list
// that still reproduces the failure.
package chaos

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/msgnet"
	"repro/internal/obs"
	"repro/internal/obs/hist"
	"repro/internal/par"
	"repro/internal/predicate"
	"repro/internal/reliablelink"
	"repro/internal/task"
)

// Config shapes a chaos campaign. The zero value is usable: 100 runs of
// 6-process, 2-resilient, 3-set agreement under 30% drop with delays and
// duplicates.
type Config struct {
	// N, F, K shape the agreement instance; 0 means 6, 2, 3. K is clamped
	// to at least F+1 (one-round min-of-quorum decides among ≤ F+1 values).
	N, F, K int

	// Rounds is the round-protocol length; 0 means 2. Decisions are taken
	// from the round-1 view; later rounds exercise the links further.
	Rounds int

	// Runs is how many randomized executions to perform; 0 means 100.
	Runs int

	// Seed makes the whole campaign deterministic; 0 means 1.
	Seed int64

	// DropRate, DupRate and DelayRate bound the per-message fault
	// probabilities randomized per run (each run draws an actual rate
	// uniformly below the bound). All zero means DropRate 0.3.
	DropRate, DupRate, DelayRate float64

	// MaxDelay bounds the injected delivery delay in steps; 0 means 16.
	MaxDelay int

	// OmitRate bounds send-omission probability for up to F faulty
	// senders; 0 disables omission components.
	OmitRate float64

	// PartitionRate is the per-run probability of a healing partition that
	// isolates up to F processes for a bounded window; 0 disables.
	PartitionRate float64

	// MaxCrashes bounds the crash failures injected per run; clamped to F.
	MaxCrashes int

	// WatchdogSteps and lingerSteps tune the reliable round protocol;
	// 0 means 1200 and 400.
	WatchdogSteps, lingerSteps int

	// FixedPlan, when non-nil, replaces the per-run randomized fault plan:
	// every run injects exactly this plan, while scheduler seeds and crash
	// draws still vary per run. Compiled model plans (hoalg.CompilePlan)
	// use this to pin a campaign to one fault scenario.
	FixedPlan *faultnet.Plan

	// TracePred, when non-nil, replaces the default eq. (3) conformance
	// check with a compiled model predicate, applied to every completed
	// execution's trace — stalled or not, since a model plan's forced
	// omissions make watchdog suspicions part of the modelled behaviour
	// rather than recovery noise.
	TracePred *predicate.P

	// SyncRounds runs every execution in lock-step on the engine: the plan
	// is read as an oracle (faultnet.Plan.LockStep: D(i,r) = rate-1.0
	// omitting senders ∖ {i} every round, duplicates and short delays leave
	// no mark) and core.RunLockStep executes it — no goroutines, links,
	// scheduler or watchdog; the decision quorum stays at n−F. It is what
	// hoalg.CompilePlan's plans are written for, and what waiting for all n
	// on the substrate induces (TestLockStepEqualsSubstrate). A crash draw
	// or a component that depends on step timing is a *LockStepError (a
	// "run-error"). The summary counts no stalls, retransmissions, give-ups
	// or steps; the Observer gets the engine's hooks on a clock standing still.
	SyncRounds bool

	// QuorumBug deliberately breaks the decision rule — processes decide
	// on sub-quorum views — so the harness can demonstrate that it catches
	// an agreement bug. Never set outside tests and demos.
	QuorumBug bool

	// Workers bounds how many runs execute concurrently; 0 means one per
	// logical CPU, 1 forces the sequential loop. Whatever the count, the
	// summary and the Out stream are byte-identical to a sequential
	// campaign: per-run seeds are pre-drawn in run order and results are
	// aggregated in run order. Campaigns with an Observer run at
	// Workers=1 regardless, so the observed event stream stays a
	// deterministic function of the seed.
	Workers int

	// Observer, when non-nil, receives every substrate, fault and link
	// event of the main executions (minimization replays are unobserved).
	Observer obs.Observer

	// Telemetry, when non-nil, receives the campaign's per-run wall-time
	// distribution ("chaos_run_wall_ns"). Unlike Observer it never forces
	// Workers=1: histogram recording is sharded-atomic and order-free, and
	// wall time flows only into histograms, never into the event stream or
	// the summary, so the byte-determinism contract is untouched.
	Telemetry *hist.Registry

	// Out, when non-nil, receives progress and failure reports.
	Out io.Writer
}

func (c Config) withDefaults() Config {
	if c.N <= 0 {
		c.N = 6
	}
	if c.F <= 0 && c.N >= 3 {
		c.F = 2
	}
	if c.F >= c.N {
		c.F = c.N - 1
	}
	if c.K <= c.F {
		c.K = c.F + 1
	}
	if c.Rounds <= 0 {
		c.Rounds = 2
	}
	if c.Runs <= 0 {
		c.Runs = 100
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.DropRate == 0 && c.DupRate == 0 && c.DelayRate == 0 && c.OmitRate == 0 && c.PartitionRate == 0 {
		c.DropRate = 0.3
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 16
	}
	if c.MaxCrashes > c.F {
		c.MaxCrashes = c.F
	}
	if c.WatchdogSteps <= 0 {
		c.WatchdogSteps = 1200
	}
	if c.lingerSteps <= 0 {
		c.lingerSteps = 400
	}
	return c
}

// maxSteps bounds each execution's scheduler steps, in every campaign.
const maxSteps = 1 << 18

// Violation is one safety-invariant breach, with everything needed to
// replay it: the scheduler seed, the full fault plan, the crash pattern,
// and the delta-debugged minimal plan.
type Violation struct {
	Run       int
	SchedSeed int64
	Plan      faultnet.Plan
	MinPlan   faultnet.Plan
	Crashes   map[core.PID]int
	Kind      string // "validity" | "k-agreement" | "predicate" | "run-error"
	Detail    string
}

// String renders the violation with its replay recipe.
func (v Violation) String() string {
	return fmt.Sprintf("run %d: %s violation: %s\n  replay: sched-seed=%d crashes=%s plan: %s\n  minimized: %s",
		v.Run, v.Kind, v.Detail, v.SchedSeed, crashString(v.Crashes), v.Plan, v.MinPlan)
}

// Summary aggregates a campaign.
type Summary struct {
	Runs       int
	Violations []Violation

	// Decided and Undecided count processes across all runs: Undecided
	// covers crash casualties and sub-quorum abstentions (a liveness cost,
	// never a safety breach).
	Decided, Undecided int

	// Stalls, Retransmissions and GiveUps aggregate link recovery work.
	Stalls, Retransmissions, GiveUps int

	// Steps totals scheduler steps across runs. Like the three above it is
	// 0 for a SyncRounds campaign, which has no links and no scheduler.
	Steps int
}

// Ok reports whether no safety invariant was violated.
func (s *Summary) Ok() bool { return len(s.Violations) == 0 }

// String renders the campaign result.
func (s *Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos: %d runs, %d violations, %d decided, %d undecided, %d stalls, %d retransmissions, %d give-ups, %d steps",
		s.Runs, len(s.Violations), s.Decided, s.Undecided, s.Stalls, s.Retransmissions, s.GiveUps, s.Steps)
	for _, v := range s.Violations {
		fmt.Fprintf(&b, "\n%s", v)
	}
	return b.String()
}

// RandomPlan draws a fault plan below the config's rate bounds, fully
// determined by seed.
func RandomPlan(cfg Config, seed int64) faultnet.Plan {
	cfg = cfg.withDefaults()
	r := faultnet.NewRNG(seed ^ 0x5ca1ab1e)
	p := faultnet.Plan{Seed: seed}
	if cfg.DropRate > 0 {
		p.Components = append(p.Components, faultnet.Component{
			Kind: faultnet.Drop, Rate: cfg.DropRate * r.Float(),
		})
	}
	if cfg.DupRate > 0 {
		p.Components = append(p.Components, faultnet.Component{
			Kind: faultnet.Duplicate, Rate: cfg.DupRate * r.Float(), Copies: 1 + r.Intn(2),
		})
	}
	if cfg.DelayRate > 0 {
		p.Components = append(p.Components, faultnet.Component{
			Kind: faultnet.Delay, Rate: cfg.DelayRate * r.Float(), MaxDelay: 1 + r.Intn(cfg.MaxDelay),
		})
	}
	if cfg.OmitRate > 0 && cfg.F > 0 {
		count := 1 + r.Intn(cfg.F)
		p.Components = append(p.Components, faultnet.Component{
			Kind: faultnet.SendOmission, Rate: cfg.OmitRate * r.Float(),
			Senders: pickPIDs(r, cfg.N, count),
		})
	}
	if cfg.PartitionRate > 0 && cfg.F > 0 && r.Float() < cfg.PartitionRate {
		island := pickPIDs(r, cfg.N, 1+r.Intn(cfg.F))
		mainland := complementPIDs(island, cfg.N)
		from := r.Intn(500)
		p.Components = append(p.Components, faultnet.Component{
			Kind:   faultnet.Partition,
			Groups: [][]core.PID{mainland, island},
			From:   from,
			Until:  from + 200 + r.Intn(2000),
			Name:   "split",
		})
	}
	return p
}

// randomCrashes draws up to MaxCrashes crash failures, each after a random
// number of network operations.
func randomCrashes(cfg Config, seed int64) map[core.PID]int {
	if cfg.MaxCrashes <= 0 {
		return nil
	}
	r := faultnet.NewRNG(seed ^ 0x0c4a54ed)
	count := r.Intn(cfg.MaxCrashes + 1)
	if count == 0 {
		return nil
	}
	out := make(map[core.PID]int, count)
	for _, p := range pickPIDs(r, cfg.N, count) {
		out[p] = 1 + r.Intn(30)
	}
	return out
}

func pickPIDs(r *faultnet.RNG, n, count int) []core.PID {
	perm := make([]core.PID, n)
	for i := range perm {
		perm[i] = core.PID(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	if count > n {
		count = n
	}
	out := append([]core.PID(nil), perm[:count]...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func complementPIDs(in []core.PID, n int) []core.PID {
	member := make(map[core.PID]bool, len(in))
	for _, p := range in {
		member[p] = true
	}
	var out []core.PID
	for i := 0; i < n; i++ {
		if !member[core.PID(i)] {
			out = append(out, core.PID(i))
		}
	}
	return out
}

func crashString(crashes map[core.PID]int) string {
	if len(crashes) == 0 {
		return "none"
	}
	pids := make([]core.PID, 0, len(crashes))
	for p := range crashes {
		pids = append(pids, p)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	parts := make([]string, len(pids))
	for i, p := range pids {
		parts[i] = fmt.Sprintf("p%d@%d", p, crashes[p])
	}
	return strings.Join(parts, ",")
}

// runResult carries one execution's artifacts through checking. It is
// substrate-neutral on purpose: the checker needs the outcome, the
// decisions, and whether any round stalled — not which kind of report
// (step-clock reliablelink or wall-clock netsub) said so.
type runResult struct {
	out       *core.RoundOutcome
	stalled   bool
	err       error
	decisions map[core.PID]core.Value
}

// Execute runs one k-set-agreement execution under the given scheduler
// seed, fault plan and crash pattern. Process i proposes the value i and
// decides the minimum of its round-1 view provided the view reached the
// n−f quorum; under QuorumBug it decides regardless of quorum. Under
// SyncRounds (see there) the seed goes unused and the report stays empty.
func Execute(cfg Config, schedSeed int64, plan faultnet.Plan, crashes map[core.PID]int) (*core.RoundOutcome, *reliablelink.RunReport, map[core.PID]core.Value, error) {
	cfg = cfg.withDefaults()
	if cfg.SyncRounds {
		out, err := executeLockStep(cfg, plan, crashes)
		return out, &reliablelink.RunReport{}, decide(cfg, out), err
	}
	if cfg.Observer != nil {
		for _, c := range plan.Partitions() {
			cfg.Observer.Event("faultnet.partition_span", -1, -1, map[string]any{
				"from": c.From, "until": c.Until, "name": c.Name,
			})
		}
	}
	out, rep, err := reliablelink.RunRounds(cfg.N, cfg.F, cfg.Rounds, reliablelink.RoundsConfig{
		Net: msgnet.Config{
			Chooser:  msgnet.Seeded(schedSeed),
			Crash:    crashes,
			MaxSteps: maxSteps,
			Faults:   plan.Injector(),
			Observer: cfg.Observer,
		},
		Link:          reliablelink.Config{Observer: cfg.Observer},
		WatchdogSteps: cfg.WatchdogSteps,
		LingerSteps:   cfg.lingerSteps,
	}, proposal)

	return out, rep, decide(cfg, out), err
}

// proposal is the round message: process i's proposal, i, every round.
func proposal(me core.PID, _ int, _ map[core.PID]core.Value, _ core.Set) core.Value { return int(me) }

// LockStepError is why a SyncRounds execution was refused: something beside
// the plan's lock-step reading would have authored suspicions.
type LockStepError struct{ error }

// executeLockStep runs the plan's lock-step reading on the engine, on a
// clock that stands still: an observed campaign's events carry no wall time.
func executeLockStep(cfg Config, plan faultnet.Plan, crashes map[core.PID]int) (*core.RoundOutcome, error) {
	if len(crashes) > 0 {
		return nil, &LockStepError{fmt.Errorf("chaos: crashes %s are suspects the lock-step plan never chose", crashString(crashes))}
	}
	oracle, err := plan.LockStep(cfg.N, cfg.WatchdogSteps)
	if err != nil {
		return nil, &LockStepError{err}
	}
	return core.RunLockStep(cfg.N, cfg.Rounds, proposal, oracle,
		core.WithObserver(cfg.Observer), core.WithClock(func() time.Time { return time.Time{} }))
}

// decide applies the decision rule to an outcome: process i decides by
// agreement.QuorumMin on its round-1 view with the n−f quorum (under
// QuorumBug, a quorum of one: any non-empty view). The rule reads only
// the outcome, so virtual and networked executions share it verbatim.
func decide(cfg Config, out *core.RoundOutcome) map[core.PID]core.Value {
	decisions := make(map[core.PID]core.Value)
	if out == nil {
		return decisions
	}
	quorum := cfg.N - cfg.F
	if cfg.QuorumBug {
		quorum = 1
	}
	for i := 0; i < cfg.N; i++ {
		views := out.Views[core.PID(i)]
		if len(views) == 0 {
			continue // crashed before completing round 1: undecided
		}
		// A sub-quorum view abstains rather than risk safety.
		if min, ok := agreement.QuorumMin(views[0], quorum); ok {
			decisions[core.PID(i)] = min
		}
	}
	return decisions
}

// check applies the safety invariants to one execution.
func check(cfg Config, res runResult) []Violation {
	var vs []Violation
	add := func(kind, format string, args ...any) {
		vs = append(vs, Violation{Kind: kind, Detail: fmt.Sprintf(format, args...)})
	}

	if res.err != nil {
		add("run-error", "execution failed instead of degrading: %v", res.err)
	}

	// Validity and k-agreement: the shared relation over the proposals
	// 0..N-1, every offender reported.
	proposals := make([]core.Value, cfg.N)
	for i := range proposals {
		proposals[i] = i
	}
	vd := task.KSet(cfg.K, task.Inputs(proposals), cfg.N, task.ByPID(res.decisions), nil)
	for _, o := range vd.Invalid {
		add("validity", "p%d decided %v, which no process proposed", o.Index, o.Value)
	}
	if vd.Excess {
		vals := make([]int, 0, len(vd.Distinct))
		for _, v := range vd.Distinct {
			if n, ok := v.(int); ok {
				vals = append(vals, n)
			}
		}
		sort.Ints(vals)
		add("k-agreement", "%d distinct decisions %v exceed k=%d", len(vd.Distinct), vals, cfg.K)
	}

	// Predicate conformance. With a TracePred the compiled model predicate
	// is checked on every completed execution (watchdog suspicions under a
	// model plan are modelled behaviour, not recovery noise); otherwise a
	// stall-free execution's trace must satisfy the eq. (3) per-round
	// suspicion budget — message loss that the link fully recovered leaves
	// no mark on the fault-detector level.
	if cfg.TracePred != nil {
		if res.out != nil && res.err == nil {
			if err := cfg.TracePred.Check(res.out.Trace); err != nil {
				add("predicate", "trace violates model %q: %v", cfg.TracePred.Name, err)
			}
		}
	} else if !res.stalled && res.out != nil && res.err == nil {
		if err := predicate.PerRoundBudget(cfg.F).Check(res.out.Trace); err != nil {
			add("predicate", "stall-free trace escapes eq.(3): %v", err)
		}
	}
	return vs
}

// Minimize delta-debugs a failing plan: it repeatedly removes components
// whose absence still reproduces a violation under the same scheduler seed
// and crash pattern, until no single removal keeps the failure.
func Minimize(cfg Config, schedSeed int64, plan faultnet.Plan, crashes map[core.PID]int) faultnet.Plan {
	cfg = cfg.withDefaults()
	cfg.Observer = nil // replays are unobserved
	cur := plan
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(cur.Components); i++ {
			cand := cur.WithoutComponent(i)
			out, rep, decisions, err := Execute(cfg, schedSeed, cand, crashes)
			if len(check(cfg, runResult{out, rep.Stalled(), err, decisions})) > 0 {
				cur = cand
				changed = true
				break
			}
		}
	}
	return cur
}

// campaignSpec is what the campaign configs have in common.
type campaignSpec struct {
	runs      int
	seed      int64
	workers   int
	observed  bool
	telemetry *hist.Registry
	wallName  string
	out       io.Writer
}

// runCampaign is the campaign loop, and the owner of its determinism
// contract. Every run's (scheduler, scenario) seeds are pre-drawn
// sequentially from the campaign RNG, so run i consumes exactly the random
// stream it would in a sequential campaign whatever order the workers
// execute in; an observed campaign runs on one worker, so the event stream
// stays a function of the seed; wall time flows only into the histogram;
// and runs are folded, and their violations printed, in run order — so the
// summary and the out stream are byte-identical at any worker count.
//
// one draws a run's scenario from its seeds, executes it inside timed (the
// part the wall histogram measures) and checks the execution into the
// run's share of the summary; fold adds a share to the campaign summary
// and returns its violations.
func runCampaign[C any, V fmt.Stringer](c campaignSpec, sum fmt.Stringer,
	one func(run int, sched, scen int64, timed func(execute func())) C, fold func(C) []V) {
	type seeds struct{ sched, scen int64 }
	rng := faultnet.NewRNG(c.seed)
	draws := make([]seeds, c.runs)
	for i := range draws {
		draws[i].sched = int64(rng.Intn(1<<30)) + 1
		draws[i].scen = int64(rng.Intn(1<<30)) + 1
	}

	workers := par.Workers(c.workers)
	if c.observed {
		workers = 1
	}
	timed := func(execute func()) { execute() }
	if c.telemetry != nil {
		wall := c.telemetry.Get(c.wallName)
		timed = func(execute func()) {
			start := time.Now()
			execute()
			wall.Record(time.Since(start).Nanoseconds())
		}
	}
	shares, perr := par.Map(workers, c.runs, func(run int) C {
		return one(run, draws[run].sched, draws[run].scen, timed)
	})
	if perr != nil {
		panic(perr) // a panicking run would abort a sequential campaign too
	}

	for _, share := range shares {
		for _, v := range fold(share) {
			if c.out != nil {
				fmt.Fprintf(c.out, "%s\n", v)
			}
		}
	}
	if c.out != nil {
		fmt.Fprintf(c.out, "%s\n", sum)
	}
}

// Run executes the campaign: Runs randomized executions, each checked
// against the safety invariants, each violation minimized and reported.
// Runs fan out over cfg.Workers goroutines (see Config.Workers) under
// runCampaign's contract: the result is independent of the worker count.
func Run(cfg Config) *Summary {
	cfg = cfg.withDefaults()
	sum := &Summary{Runs: cfg.Runs}
	runCampaign(campaignSpec{cfg.Runs, cfg.Seed, cfg.Workers, cfg.Observer != nil, cfg.Telemetry, "chaos_run_wall_ns", cfg.Out}, sum,
		func(run int, sched, seed int64, timed func(func())) Summary {
			plan := RandomPlan(cfg, seed)
			if cfg.FixedPlan != nil {
				plan = *cfg.FixedPlan
			}
			crashes := randomCrashes(cfg, seed)

			var res runResult
			var rep *reliablelink.RunReport
			timed(func() { res.out, rep, res.decisions, res.err = Execute(cfg, sched, plan, crashes) })
			res.stalled = rep.Stalled()

			one := Summary{Decided: len(res.decisions), Undecided: cfg.N - len(res.decisions)}
			if rep != nil {
				one.Stalls = len(rep.Stalls)
				one.Retransmissions = rep.Retransmissions
				one.GiveUps = rep.GiveUps
				one.Steps = rep.Steps
			}
			if one.Violations = check(cfg, res); len(one.Violations) > 0 {
				min := Minimize(cfg, sched, plan, crashes)
				for i := range one.Violations {
					v := &one.Violations[i]
					v.Run, v.SchedSeed, v.Plan, v.MinPlan, v.Crashes = run, sched, plan, min, crashes
				}
			}
			return one
		},
		func(one Summary) []Violation {
			sum.Decided += one.Decided
			sum.Undecided += one.Undecided
			sum.Stalls += one.Stalls
			sum.Retransmissions += one.Retransmissions
			sum.GiveUps += one.GiveUps
			sum.Steps += one.Steps
			sum.Violations = append(sum.Violations, one.Violations...)
			return one.Violations
		})
	return sum
}
