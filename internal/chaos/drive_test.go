package chaos

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/msgnet"
	"repro/internal/reliablelink"
)

// goldenCampaign is TestGoldenCampaign's configuration: chunk 0 of the
// bench/sim.go fault campaign.
var goldenCampaign = Config{
	N: 6, F: 2, K: 3,
	Runs:      250,
	Seed:      1000004,
	DropRate:  0.3,
	DupRate:   0.3,
	DelayRate: 0.4, OmitRate: 0.4, PartitionRate: 0.5,
	MaxCrashes: 2,
	Workers:    1,
}

// eachRun draws the scenario of every run of a campaign as runCampaign and
// Run do, and hands it to one.
func eachRun(cfg Config, one func(run int, sched int64, plan faultnet.Plan, crashes map[core.PID]int)) {
	cfg = cfg.withDefaults()
	rng := core.NewRand(cfg.Seed)
	for run := 0; run < cfg.Runs; run++ {
		sched := int64(rng.Intn(1<<30)) + 1
		scen := int64(rng.Intn(1<<30)) + 1
		one(run, sched, RandomPlan(cfg, scen), randomCrashes(cfg, scen))
	}
}

// tally is what a test reads off one execution beside its outcome.
type tally struct {
	rep       reliablelink.RunReport
	linkCalls int // calls of Link.Broadcast and Link.RecvTimeout, all the round loop makes
	wakes     int // hand-overs that woke a parked process (baton's unexported counter)
}

// counted counts the round loop's calls into a link.
type counted struct {
	*reliablelink.Link
	calls *int
}

func (c counted) Broadcast(v core.Value) error {
	*c.calls++
	return c.Link.Broadcast(v)
}

func (c counted) RecvTimeout(deadline int) (msgnet.Envelope, bool, error) {
	*c.calls++
	return c.Link.RecvTimeout(deadline)
}

// executeOn is Execute — reliablelink.RunRounds spelled out over the
// exported pieces it is made of — with each link laid over under(node): a
// test hides the node there, which sends every drive of the link through
// msgnet.Drive's loop instead of the baton holders.
func executeOn(cfg Config, sched int64, plan faultnet.Plan, crashes map[core.PID]int, under func(*msgnet.Node) msgnet.Substrate) (*core.RoundOutcome, tally, error) {
	cfg = cfg.withDefaults()
	recs := make([]*core.RoundRec, cfg.N)
	stalls := make([][]msgnet.Stall, cfg.N)
	links := make([]*reliablelink.Link, cfg.N)
	calls := make([]int, cfg.N)
	var p0 *msgnet.Node
	out, err := msgnet.Run(cfg.N, msgnet.Config{
		Chooser:  core.Seeded(sched),
		Crash:    crashes,
		MaxSteps: maxSteps,
		Faults:   plan.Injector(),
	}, func(nd *msgnet.Node) (core.Value, error) {
		if nd.Me == 0 {
			p0 = nd
		}
		l := reliablelink.New(under(nd), reliablelink.Config{})
		links[nd.Me] = l
		var err error
		recs[nd.Me], stalls[nd.Me], err = msgnet.RunSubstrateRounds(counted{l, &calls[nd.Me]}, cfg.F, cfg.Rounds, cfg.WatchdogSteps, cfg.lingerSteps, proposal, nil)
		return nil, err
	})
	t := tally{rep: reliablelink.RunReport{PerProc: make([]reliablelink.Stats, cfg.N), Steps: out.Steps, Crashed: out.Crashed, Errs: out.Errs}}
	for i, l := range links {
		st := l.Stats()
		t.rep.PerProc[i] = st
		t.rep.Retransmissions += st.Retransmissions
		t.rep.GiveUps += st.GiveUps
		t.rep.DupFramesReceived += st.DupFramesReceived
		t.rep.Stalls = append(t.rep.Stalls, stalls[i]...)
		t.linkCalls += calls[i]
	}
	t.wakes = int(reflect.ValueOf(p0).Elem().FieldByName("sched").Elem().FieldByName("baton").Elem().FieldByName("wakes").Int())
	return core.AssembleRoundOutcome(cfg.N, recs, out.Crashed, out.Steps), t, err
}

func hidden(nd *msgnet.Node) msgnet.Substrate { return struct{ msgnet.Substrate }{nd} }

func native(nd *msgnet.Node) msgnet.Substrate { return nd }

// TestCampaignSliceUnderBothDrivers: the first 40 runs of the golden
// campaign, with the links' drives taken by the baton holders and by the
// loop, give the same trace, views and report — and the ones Execute gives,
// which TestGoldenCampaign pins through Run.
func TestCampaignSliceUnderBothDrivers(t *testing.T) {
	cfg := goldenCampaign
	cfg.Runs = 40
	eachRun(cfg, func(run int, sched int64, plan faultnet.Plan, crashes map[core.PID]int) {
		want, wantRep, _, wantErr := Execute(cfg, sched, plan, crashes)
		for name, under := range map[string]func(*msgnet.Node) msgnet.Substrate{"holder": native, "loop": hidden} {
			got, tl, err := executeOn(cfg, sched, plan, crashes, under)
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(&tl.rep, wantRep) || !reflect.DeepEqual(err, wantErr) {
				t.Fatalf("run %d, %s:\n got %+v\n     %+v\n     %v\nwant %+v\n     %+v\n     %v", run, name, got, tl.rep, err, want, *wantRep, wantErr)
			}
		}
	})
}

// TestBodiesAreWokenOnlyForWhatTheyAskedFor pins the count the handlers are
// for. Over the golden campaign — the same 343 652 steps and 91 723
// retransmissions — a process is woken at most once per call its round loop
// makes into its link (and a body that starts may be handed the baton once):
// 16 450 hand-overs, where every operation that did not pick its own
// holder used to be one, 237 087 of them. Bodies start in spawn order, so
// the count no longer varies from run to run; the bound is what is pinned.
func TestBodiesAreWokenOnlyForWhatTheyAskedFor(t *testing.T) {
	var steps, retransmissions, calls, wakes int
	eachRun(goldenCampaign, func(run int, sched int64, plan faultnet.Plan, crashes map[core.PID]int) {
		_, tl, err := executeOn(goldenCampaign, sched, plan, crashes, native)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		steps += tl.rep.Steps
		retransmissions += tl.rep.Retransmissions
		calls += tl.linkCalls
		wakes += tl.wakes
	})
	if steps != 343652 || retransmissions != 91723 {
		t.Fatalf("%d steps and %d retransmissions: not the golden campaign's 343652 and 91723", steps, retransmissions)
	}
	bodies := goldenCampaign.Runs * goldenCampaign.N
	if wakes > calls+bodies {
		t.Fatalf("%d hand-overs woke a process, over %d link calls and %d bodies: a body is being woken mid-call", wakes, calls, bodies)
	}
	t.Logf("%d steps, %d link calls, %d bodies, %d wakes", steps, calls, bodies, wakes)
}
