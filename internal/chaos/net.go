package chaos

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/netsub"
)

// NetConfig tunes the networked (real-socket) execution path.
type NetConfig struct {
	// watchdog and linger are the wall-clock analogues of WatchdogSteps
	// and lingerSteps; 0 means 500ms and 100ms — generous for loopback,
	// tight enough that partitioned rounds degrade quickly.
	watchdog, linger time.Duration
}

func (c NetConfig) withDefaults() NetConfig {
	if c.watchdog <= 0 {
		c.watchdog = 500 * time.Millisecond
	}
	if c.linger <= 0 {
		c.linger = 100 * time.Millisecond
	}
	return c
}

// ExecuteNet runs one k-set-agreement execution over real TCP sockets
// with the fault plan applied by the socket-level chaos proxy — the
// networked twin of Execute. The protocol body, the decision rule and
// the safety checks are shared with the virtual path; only the substrate
// and the fault-application layer differ. Crash patterns are not
// expressible here (processes are goroutine-local, not scheduler-owned);
// the multi-process rrfdsim harness covers real process death.
func ExecuteNet(cfg Config, plan faultnet.Plan, ncfg NetConfig) (*core.RoundOutcome, *netsub.RunReport, map[core.PID]core.Value, error) {
	cfg, ncfg = cfg.withDefaults(), ncfg.withDefaults()
	lns, err := netsub.WrapAll(cfg.N, plan, netsub.ChaosConfig{Observer: cfg.Observer})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("chaos: wrap listeners: %w", err)
	}
	node := netsub.Config{Observer: cfg.Observer, Hist: cfg.Telemetry}
	out, rep, err := netsub.RunRounds(cfg.N, cfg.F, cfg.Rounds, netsub.RoundsConfig{
		Node:      node,
		Listeners: lns,
		Watchdog:  ncfg.watchdog,
		Linger:    ncfg.linger,
	}, func(me core.PID, r int, _ map[core.PID]core.Value, _ core.Set) core.Value {
		return int(me) // the proposal, re-broadcast every round
	})
	return out, rep, decide(cfg, out), err
}

// CrossVerdict is the result of running the same fault plan through both
// substrates and comparing what the safety checker concluded.
type CrossVerdict struct {
	// Virtual and Net hold each substrate's violations (empty = clean).
	Virtual, Net []Violation

	// VirtualStalled and NetStalled record whether rounds degraded into
	// watchdog suspicions on each substrate.
	VirtualStalled, NetStalled bool

	// Agree reports whether both substrates produced the same verdict:
	// the same set of violation kinds (in particular, both clean).
	Agree bool
}

// String renders the verdict compactly.
func (v *CrossVerdict) String() string {
	state := "DISAGREE"
	if v.Agree {
		state = "agree"
	}
	return fmt.Sprintf("cross-validate: %s — virtual: %s (stalled=%t), tcp: %s (stalled=%t)",
		state, kindSet(v.Virtual), v.VirtualStalled, kindSet(v.Net), v.NetStalled)
}

func kindSet(vs []Violation) string {
	if len(vs) == 0 {
		return "clean"
	}
	seen := map[string]bool{}
	var kinds []string
	for _, v := range vs {
		if !seen[v.Kind] {
			seen[v.Kind] = true
			kinds = append(kinds, v.Kind)
		}
	}
	sort.Strings(kinds)
	return fmt.Sprint(kinds)
}

// CrossValidate runs the SAME fault plan once through the virtual
// substrate's injector (reliablelink over the step-clock scheduler) and
// once through the socket proxy over real TCP, applies the same safety
// checks to both outcomes, and compares the verdicts. Plans whose
// decisions are deterministic per seed — never-healing partitions, rate-0
// or rate-1 components — make the comparison exact; the shipped
// regression scenario uses a never-healing three-way partition with the
// quorum bug, which yields a k-agreement violation on BOTH substrates,
// and the honest rule, which yields clean on both.
func CrossValidate(cfg Config, schedSeed int64, plan faultnet.Plan, ncfg NetConfig) (*CrossVerdict, error) {
	cfg = cfg.withDefaults()

	vout, vrep, vdec, verr := Execute(cfg, schedSeed, plan, nil)
	v := &CrossVerdict{
		Virtual:        check(cfg, runResult{vout, vrep.Stalled(), verr, vdec}),
		VirtualStalled: vrep.Stalled(),
	}

	nout, nrep, ndec, nerr := ExecuteNet(cfg, plan, ncfg)
	if nerr != nil {
		return v, fmt.Errorf("chaos: networked execution: %w", nerr)
	}
	v.Net = check(cfg, runResult{nout, nrep.Stalled(), nerr, ndec})
	v.NetStalled = nrep.Stalled()

	v.Agree = kindSet(v.Virtual) == kindSet(v.Net)
	return v, nil
}

// SplitBrainPlan is the deterministic cross-validation scenario: a
// never-healing three-way partition {0} | {1} | {2..n-1}. Under the
// honest quorum rule every island abstains (clean on both substrates);
// under QuorumBug each island decides its own minimum, producing three
// distinct decisions — a k-agreement violation for any k < 3 — on both
// substrates. Never-healing windows make the partition independent of
// step-vs-frame indexing, so the verdict is deterministic per seed.
func SplitBrainPlan(n int, seed int64) faultnet.Plan {
	rest := make([]core.PID, 0, n-2)
	for i := 2; i < n; i++ {
		rest = append(rest, core.PID(i))
	}
	return faultnet.Plan{Seed: seed, Components: []faultnet.Component{{
		Kind:   faultnet.Partition,
		Groups: [][]core.PID{{0}, {1}, rest},
		Name:   "split-brain",
	}}}
}
