package chaos

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/hoalg"
	"repro/internal/msgnet"
	"repro/internal/obs/trace"
	"repro/internal/reliablelink"
)

// lockStepConfig is the shape of every model campaign: the hoalg closure
// suite's and X05's parameters.
func lockStepConfig() Config {
	return Config{N: 5, F: 1, K: 2, Rounds: 3, SyncRounds: true}.withDefaults()
}

// modelPlans hands each the honest and the breaker plan of every catalog
// model, compiled with the given plan seed.
func modelPlans(t *testing.T, n int, seed int64, each func(name string, plan faultnet.Plan)) {
	t.Helper()
	p := hoalg.Params{N: n, F: 1, K: 2, Stab: 1}
	for _, m := range hoalg.Catalog() {
		e := m.Build(p)
		for _, from := range []*hoalg.Expr{e, hoalg.Not(e)} {
			plan, err := from.CompilePlan(n, seed)
			if err != nil {
				t.Fatalf("CompilePlan(%q): %v", from, err)
			}
			each(fmt.Sprintf("%s/plan of %q/plan-seed=%d", m.Name, from, seed), plan)
		}
	}
}

// TestLockStepEqualsSubstrate is where the substrate keeps its evidence for
// the engine's reading of a compiled plan. For every catalog model, its
// honest and its breaker plan, 5 plan seeds and 4 scheduler seeds, the
// round protocol waiting for all n on reliable links under plan.Injector()
// — reliablelink.RunRounds called directly: the reference, which no
// configuration reaches — induces the trace, the views and the decisions
// the engine gives under plan.LockStep.
func TestLockStepEqualsSubstrate(t *testing.T) {
	cfg := lockStepConfig()
	for planSeed := int64(11); planSeed < 16; planSeed++ {
		modelPlans(t, cfg.N, planSeed, func(name string, plan faultnet.Plan) {
			got, rep, gotDecisions, err := Execute(cfg, 0, plan, nil)
			if err != nil {
				t.Fatalf("%s: engine: %v", name, err)
			}
			if rep.Stalled() || rep.Steps != 0 || rep.Retransmissions != 0 {
				t.Fatalf("%s: a lock-step run reports substrate work: %+v", name, *rep)
			}
			for sched := int64(1); sched <= 4; sched++ {
				want, _, err := reliablelink.RunRounds(cfg.N, 0, cfg.Rounds, reliablelink.RoundsConfig{
					Net:           msgnet.Config{Chooser: core.Seeded(sched), MaxSteps: maxSteps, Faults: plan.Injector()},
					WatchdogSteps: cfg.WatchdogSteps,
					LingerSteps:   cfg.lingerSteps,
				}, proposal)
				if err != nil {
					t.Fatalf("%s sched=%d: substrate: %v", name, sched, err)
				}
				if got.Trace.Len() != cfg.Rounds || want.Trace.Len() != cfg.Rounds {
					t.Fatalf("%s sched=%d: %d engine rounds, %d substrate rounds, want %d", name, sched, got.Trace.Len(), want.Trace.Len(), cfg.Rounds)
				}
				for r := 1; r <= cfg.Rounds; r++ {
					g, w := got.Trace.Round(r), want.Trace.Round(r)
					if !g.Active.Equal(w.Active) || !reflect.DeepEqual(g.Suspects, w.Suspects) {
						t.Fatalf("%s sched=%d round %d under %s:\n engine    active=%s D=%v\n substrate active=%s D=%v", name, sched, r, plan, g.Active, g.Suspects, w.Active, w.Suspects)
					}
				}
				if !reflect.DeepEqual(got.Views, want.Views) {
					t.Fatalf("%s sched=%d under %s: views\n engine    %v\n substrate %v", name, sched, plan, got.Views, want.Views)
				}
				if wantDecisions := decide(cfg, want); !reflect.DeepEqual(gotDecisions, wantDecisions) {
					t.Fatalf("%s sched=%d under %s: decisions\n engine    %v\n substrate %v", name, sched, plan, gotDecisions, wantDecisions)
				}
			}
		})
	}
}

// TestLockStepRefusesWhatThePlanDidNotChoose: a crash, or a component with
// no lock-step reading, is a typed error and not an execution.
func TestLockStepRefusesWhatThePlanDidNotChoose(t *testing.T) {
	cfg := lockStepConfig()
	omission := faultnet.Plan{Seed: 1, Components: []faultnet.Component{{Kind: faultnet.SendOmission, Rate: 1, Senders: []core.PID{2}}}}
	drop := faultnet.Plan{Seed: 1, Components: []faultnet.Component{{Kind: faultnet.Drop, Rate: 0.3}}}

	var refused *LockStepError
	out, rep, decisions, err := Execute(cfg, 1, omission, map[core.PID]int{3: 5})
	if !errors.As(err, &refused) || out != nil || rep == nil || len(decisions) != 0 {
		t.Fatalf("crash map under SyncRounds: out=%v rep=%v decisions=%v err=%v, want a *LockStepError and nothing run", out, rep, decisions, err)
	}
	if _, _, _, err = Execute(cfg, 1, drop, nil); !errors.As(err, &refused) || !strings.Contains(err.Error(), "drop(30%) has no lock-step reading") {
		t.Fatalf("drop plan under SyncRounds: err=%v, want a *LockStepError naming the drop", err)
	}

	// A campaign that draws crashes reports each such run as refused, and
	// never as a predicate violation the plan did not cause.
	campaign := cfg
	campaign.Runs, campaign.Seed, campaign.MaxCrashes, campaign.FixedPlan = 20, 1, 1, &omission
	sum := Run(campaign)
	if sum.Ok() {
		t.Fatal("20 runs drawing up to one crash each drew none")
	}
	for _, v := range sum.Violations {
		if v.Kind != "run-error" || len(v.Crashes) == 0 {
			t.Fatalf("lock-step campaign with crash draws reports %s", v)
		}
	}
}

// TestLockStepReplayRendersOnTheEngineTrack: a model checked against its
// negation's plan is violated, and replaying the violation under the tracer
// gives the engine track one "round r" slice per round.
func TestLockStepReplayRendersOnTheEngineTrack(t *testing.T) {
	cfg := lockStepConfig()
	cfg.Runs, cfg.Seed = 3, 11
	m, _ := hoalg.Lookup("async")
	e := m.Build(hoalg.Params{N: cfg.N, F: 1, K: 2, Stab: 1})
	plan, err := hoalg.Not(e).CompilePlan(cfg.N, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	pred := e.Compile()
	cfg.FixedPlan, cfg.TracePred = &plan, &pred
	sum := Run(cfg)
	if sum.Ok() {
		t.Fatalf("breaker plan %s escaped %q", plan, e)
	}
	v := sum.Violations[0]

	tr := trace.New()
	cfg.Observer = tr
	if _, _, _, err := Execute(cfg, v.SchedSeed, v.MinPlan, v.Crashes); err != nil {
		t.Fatalf("replay: %v", err)
	}
	data, err := tr.Perfetto()
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name, Ph string
			Tid      int
		}
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	slices := map[string]int{}
	for _, ev := range file.TraceEvents {
		if ev.Ph == "X" && ev.Tid == 0 {
			slices[ev.Name]++
		}
	}
	for r := 1; r <= cfg.Rounds; r++ {
		if name := fmt.Sprintf("round %d", r); slices[name] != 1 {
			t.Fatalf("engine track holds %d %q slices, want 1 (all slices: %v)", slices[name], name, slices)
		}
	}
}

// BenchmarkModelCampaign is one X05 row's chaos half: kset(2) checked in a
// 4-run lock-step campaign at n=5 against its honest plan (clean) and
// against its negation's (every run caught, each violation minimized).
func BenchmarkModelCampaign(b *testing.B) {
	e := hoalg.KSetEq3(2)
	pred := e.Compile()
	cfg := lockStepConfig()
	cfg.Runs, cfg.Seed, cfg.TracePred = 4, 11, &pred
	honest, err := e.CompilePlan(cfg.N, cfg.Seed)
	if err != nil {
		b.Fatal(err)
	}
	breaker, err := hoalg.Not(e).CompilePlan(cfg.N, cfg.Seed)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.FixedPlan = &honest
		if sum := Run(cfg); !sum.Ok() {
			b.Fatalf("honest campaign:\n%s", sum)
		}
		cfg.FixedPlan = &breaker
		if sum := Run(cfg); len(sum.Violations) != cfg.Runs {
			b.Fatalf("breaker campaign caught %d of %d runs", len(sum.Violations), cfg.Runs)
		}
	}
}
