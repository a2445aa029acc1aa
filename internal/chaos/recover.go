package chaos

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/msgnet"
	"repro/internal/obs"
	"repro/internal/obs/hist"
	"repro/internal/recovery"
)

// RecoverConfig shapes a crash-and-recover chaos campaign: many seeded
// executions of the journaled round protocol, each with randomized crash
// points, restart delays and proposals, each audited against the
// crash-recovery safety invariants (trace structure, per-round budget,
// validity, k-agreement with k=f+1, and the log-before-act durability rule).
type RecoverConfig struct {
	// N and F shape the instance; 0 means 5 and 1.
	N, F int

	// Rounds is the protocol length; 0 means 5 (recovered processes need
	// room to catch back up).
	Rounds int

	// Runs is the campaign size; 0 means 100.
	Runs int

	// Seed makes the whole campaign deterministic; 0 means 1.
	Seed int64

	// MaxCrashes bounds crash-and-recover faults per run; clamped to F,
	// 0 means F.
	MaxCrashes int

	// restartChance is the probability a crashed process gets a supervisor
	// restart (the rest stay down — plain fail-stop); 0 means 0.8.
	restartChance float64

	// DropRate and DelayRate bound per-message link-fault probabilities
	// randomized per run; 0 disables (crash-recovery is the subject here).
	DropRate, DelayRate float64

	// WatchdogSteps is the per-round receive deadline; 0 means 512.
	WatchdogSteps int

	// AmnesiaBug plants the recovery bug (decide from pre-crash un-flushed
	// state) in every restarted process, to demonstrate the audit catches
	// it. Never set outside tests and demos.
	AmnesiaBug bool

	// Workers bounds how many runs execute concurrently, with the same
	// contract as Config.Workers: 0 means one per logical CPU, results are
	// byte-identical to a sequential campaign, and an Observer forces
	// Workers=1.
	Workers int

	// Observer, when non-nil, receives substrate and recovery events.
	Observer obs.Observer

	// Telemetry, when non-nil, receives the per-run wall-time distribution
	// ("chaos_recover_wall_ns"), with the same contract as
	// Config.Telemetry: never serializes workers, never touches the
	// deterministic outputs.
	Telemetry *hist.Registry

	// Out, when non-nil, receives progress and failure reports.
	Out io.Writer
}

func (c RecoverConfig) withDefaults() RecoverConfig {
	if c.N <= 0 {
		c.N = 5
	}
	if c.F <= 0 {
		c.F = 1
	}
	if c.F >= c.N {
		c.F = c.N - 1
	}
	if c.Rounds <= 0 {
		c.Rounds = 5
	}
	if c.Runs <= 0 {
		c.Runs = 100
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxCrashes <= 0 || c.MaxCrashes > c.F {
		c.MaxCrashes = c.F
	}
	if c.restartChance == 0 {
		c.restartChance = 0.8
	}
	if c.WatchdogSteps <= 0 {
		c.WatchdogSteps = 512
	}
	return c
}

// maxRestartDelay bounds the supervisor's restart latency in scheduler
// steps; flushEvery is the view-flush cadence — the amnesia window recovery
// must survive is flushEvery-1 rounds wide.
const (
	maxRestartDelay = 300
	flushEvery      = 3
)

// RecoverScenario is one execution's full randomized input — everything
// needed to replay it exactly.
type RecoverScenario struct {
	SchedSeed int64
	Crashes   map[core.PID]int
	Restarts  map[core.PID]int
	Proposals []int
	Plan      faultnet.Plan
}

func (s RecoverScenario) String() string {
	return fmt.Sprintf("sched-seed=%d crashes=%s restarts=%s proposals=%v plan: %s",
		s.SchedSeed, crashString(s.Crashes), crashString(s.Restarts), s.Proposals, s.Plan)
}

// RecoverViolation is one audited safety breach with its replay recipe.
type RecoverViolation struct {
	Run      int
	Scenario RecoverScenario
	Kind     string // recovery.AuditError kinds plus "run-error"
	Detail   string
}

func (v RecoverViolation) String() string {
	return fmt.Sprintf("run %d: %s violation: %s\n  replay: %s", v.Run, v.Kind, v.Detail, v.Scenario)
}

// RecoverSummary aggregates a crash-and-recover campaign.
type RecoverSummary struct {
	Runs       int
	Violations []RecoverViolation

	// Decided and Undecided count processes across runs; abstention after a
	// failed catch-up is a liveness cost, not a safety breach.
	Decided, Undecided int

	// Crashes, Restarts and Rejoins count injected faults, supervised
	// restarts, and restarted processes that completed a round again.
	Crashes, Restarts, Rejoins int

	// ReplayedRounds totals journal rounds restored at recovery; LostRecords
	// totals journal records destroyed by crashes (the amnesia windows).
	ReplayedRounds, LostRecords int

	// Steps totals scheduler steps.
	Steps int
}

// Ok reports whether no safety invariant was violated.
func (s *RecoverSummary) Ok() bool { return len(s.Violations) == 0 }

// String renders the campaign result.
func (s *RecoverSummary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos-recover: %d runs, %d violations, %d decided, %d undecided, %d crashes, %d restarts, %d rejoins, %d replayed rounds, %d lost records, %d steps",
		s.Runs, len(s.Violations), s.Decided, s.Undecided, s.Crashes, s.Restarts, s.Rejoins, s.ReplayedRounds, s.LostRecords, s.Steps)
	for _, v := range s.Violations {
		fmt.Fprintf(&b, "\n%s", v)
	}
	return b.String()
}

// RandomRecoverScenario draws one execution's inputs, fully determined by
// (cfg, seed): which processes crash and when, which of them the supervisor
// restarts and how late, the proposals, and any link-fault plan.
func RandomRecoverScenario(cfg RecoverConfig, seed int64) RecoverScenario {
	cfg = cfg.withDefaults()
	r := core.NewRand(seed ^ 0x4ec04e4d)
	s := RecoverScenario{
		Crashes:  make(map[core.PID]int),
		Restarts: make(map[core.PID]int),
	}
	count := 0 // a lone process (F clamped to 0) has no crash to survive
	if cfg.MaxCrashes > 0 {
		count = 1 + r.Intn(cfg.MaxCrashes) // at least one crash per run: recovery is the subject
	}
	for _, p := range pickPIDs(&r, cfg.N, count) {
		s.Crashes[p] = 1 + r.Intn(40)
		if r.Float() < cfg.restartChance {
			s.Restarts[p] = 1 + r.Intn(maxRestartDelay)
		}
	}
	s.Proposals = make([]int, cfg.N)
	for i := range s.Proposals {
		s.Proposals[i] = r.Intn(100)
	}
	s.Plan = faultnet.Plan{Seed: seed}
	if cfg.DropRate > 0 {
		s.Plan.Components = append(s.Plan.Components, faultnet.Component{
			Kind: faultnet.Drop, Rate: cfg.DropRate * r.Float(),
		})
	}
	if cfg.DelayRate > 0 {
		s.Plan.Components = append(s.Plan.Components, faultnet.Component{
			Kind: faultnet.Delay, Rate: cfg.DelayRate * r.Float(), MaxDelay: 1 + r.Intn(16),
		})
	}
	return s
}

// ExecuteRecover replays one crash-and-recover execution.
func ExecuteRecover(cfg RecoverConfig, s RecoverScenario) (*recovery.Outcome, error) {
	cfg = cfg.withDefaults()
	return recovery.RunRounds(cfg.N, cfg.F, cfg.Rounds, recovery.Config{
		Net: msgnet.Config{
			Chooser:  core.Seeded(s.SchedSeed),
			Crash:    s.Crashes,
			Restart:  s.Restarts,
			MaxSteps: maxSteps,
			Faults:   s.Plan.Injector(),
			Observer: cfg.Observer,
		},
		FlushEvery:    flushEvery,
		WatchdogSteps: cfg.WatchdogSteps,
		Proposals:     s.Proposals,
		AmnesiaBug:    cfg.AmnesiaBug,
	})
}

// checkRecover audits one execution and maps findings onto violations.
func checkRecover(cfg RecoverConfig, out *recovery.Outcome, err error) []RecoverViolation {
	cfg = cfg.withDefaults()
	if err != nil {
		return []RecoverViolation{{Kind: "run-error", Detail: fmt.Sprintf("execution failed instead of degrading: %v", err)}}
	}
	if aerr := recovery.Audit(out, cfg.N, cfg.F, cfg.Rounds); aerr != nil {
		v := RecoverViolation{Kind: "audit", Detail: aerr.Error()}
		var ae *recovery.AuditError
		if errors.As(aerr, &ae) {
			v.Kind = ae.Kind
		}
		return []RecoverViolation{v}
	}
	return nil
}

// RunRecover executes the crash-and-recover campaign: Runs seeded
// executions, each with at least one crash, each audited. Violations carry
// the full replay recipe. Runs fan out over cfg.Workers goroutines under
// runCampaign's contract, as Run's do: output byte-identical for any
// worker count.
func RunRecover(cfg RecoverConfig) *RecoverSummary {
	cfg = cfg.withDefaults()
	sum := &RecoverSummary{Runs: cfg.Runs}
	runCampaign(campaignSpec{cfg.Runs, cfg.Seed, cfg.Workers, cfg.Observer != nil, cfg.Telemetry, "chaos_recover_wall_ns", cfg.Out}, sum,
		func(run int, sched, seed int64, timed func(func())) RecoverSummary {
			s := RandomRecoverScenario(cfg, seed)
			s.SchedSeed = sched

			var out *recovery.Outcome
			var err error
			timed(func() { out, err = ExecuteRecover(cfg, s) })

			var one RecoverSummary
			if out != nil {
				one.Decided = len(out.Decisions)
				one.Undecided = cfg.N - len(out.Decisions)
				one.Crashes = out.Crashed.Count()
				one.Restarts = out.Restarted.Count()
				one.Rejoins = out.Rejoined.Count()
				for _, r := range out.Replayed {
					one.ReplayedRounds += r
				}
				for _, l := range out.Lost {
					one.LostRecords += l
				}
				one.Steps = out.Steps
			}
			one.Violations = checkRecover(cfg, out, err)
			for i := range one.Violations {
				one.Violations[i].Run = run
				one.Violations[i].Scenario = s
			}
			return one
		},
		func(one RecoverSummary) []RecoverViolation {
			sum.Decided += one.Decided
			sum.Undecided += one.Undecided
			sum.Crashes += one.Crashes
			sum.Restarts += one.Restarts
			sum.Rejoins += one.Rejoins
			sum.ReplayedRounds += one.ReplayedRounds
			sum.LostRecords += one.LostRecords
			sum.Steps += one.Steps
			sum.Violations = append(sum.Violations, one.Violations...)
			return one.Violations
		})
	return sum
}
