package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/adversary"
	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/hoalg"
	"repro/internal/mc"
	"repro/internal/msgnet"
	"repro/internal/netsub"
	"repro/internal/obs"
	"repro/internal/obs/hist"
	"repro/internal/predicate"
	"repro/internal/recovery"
	"repro/internal/reliablelink"
	"repro/internal/serve"
	"repro/internal/wal"
)

// The ladder: each rung times one layer's public entry point on an idle
// n=3 f=1 set-up, call by call, and reports the median, so adjacent
// rungs subtract to a per-layer cost. The other probes are fixed pieces
// of work whose counts repeat exactly. Nothing here depends on the
// workload or the seed: a layer's cost is a property of the layer.
const (
	ladderN, ladderF = 3, 1
	ladderRounds     = 4    // rounds per call on the virtual substrates
	ladderCalls      = 2000 // timed calls per rung at scale 1
)

// ladder carries one traced run's probe state.
type ladder struct {
	r    *run
	l    *lane
	root open
	out  map[string]float64
}

// rung times fn call by call — one span each — after a tenth as many
// untimed warm-up calls (none for a rung of a few long calls), and
// returns the median in nanoseconds.
func (ld *ladder) rung(name string, calls int, fn func(i int) error) (float64, error) {
	sp := ld.l.begin(ld.root.id, name)
	defer func() { ld.l.end(sp) }()
	warm := calls / 10
	for i := 0; i < warm; i++ {
		if err := fn(i); err != nil {
			return 0, fmt.Errorf("%s warm-up: %w", name, err)
		}
	}
	ns := make([]int64, calls)
	for i := range ns {
		c := ld.l.begin(sp.id, "call")
		t0 := time.Now()
		err := fn(warm + i)
		ns[i] = int64(time.Since(t0))
		ld.l.end(c)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	return medianNS(ns), nil
}

func runLadder(r *run, l *lane) (map[string]float64, error) {
	ld := &ladder{r: r, l: l, root: l.begin(0, "ladder"), out: map[string]float64{}}
	defer func() { l.end(ld.root) }()
	for _, step := range []func() error{
		ld.core, ld.virtualRounds, ld.netsub, ld.wal, ld.serve, ld.loadgen,
		ld.mc, ld.checkers, ld.obs, ld.fleet,
	} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return ld.out, nil
}

func identity(n int) []core.Value {
	in := make([]core.Value, n)
	for i := range in {
		in[i] = i
	}
	return in
}

func (ld *ladder) core() error {
	calls := ld.r.n(ladderCalls)

	// A set-op triple is ~10 ns, below the clock's resolution, so one
	// timed call is a thousand of them.
	const n, batch = 64, 1000
	x, y := core.FullSet(n), core.SetOf(n, 0, core.PID(n/2), core.PID(n-1))
	u, v, w := core.NewSet(n), core.NewSet(n), core.NewSet(n)
	ns, err := ld.rung("core.setops", calls, func(int) error {
		for i := 0; i < batch; i++ {
			u.CopyFrom(x)
			u.UnionInto(y)
			v.CopyFrom(x)
			v.IntersectInto(y)
			w.CopyFrom(u)
			w.DiffInto(v)
		}
		if w.Count() != n-3 {
			return errors.New("set algebra broke")
		}
		return nil
	})
	if err != nil {
		return err
	}
	ld.out["core.setops_ns"] = ns / batch

	inputs := identity(ladderN)
	round := func(i int) error {
		_, err := core.Run(ladderN, inputs, agreement.FloodMin(ladderRounds),
			adversary.Crash(ladderN, ladderF, int64(i)), core.WithoutTrace())
		return err
	}
	if ns, err = ld.rung("core.round", calls, round); err != nil {
		return err
	}
	ld.out["core.round_us"] = ns / ladderRounds / 1e3

	m0 := readMem()
	for i := 0; i < calls; i++ {
		if err := round(i); err != nil {
			return err
		}
	}
	ld.out["core.round_allocs"] = float64(readMem().Mallocs-m0.Mallocs) / float64(calls*ladderRounds)
	return nil
}

// virtualRounds climbs the three round loops that run on the virtual
// scheduler: bare msgnet, msgnet under reliable links, and the journaled
// crash-recovery loop.
func (ld *ladder) virtualRounds() error {
	calls := ld.r.n(ladderCalls)
	netCfg := func(i int) msgnet.Config { return msgnet.Config{Chooser: msgnet.Seeded(int64(i) + 1)} }
	rungs := []struct {
		name string
		fn   func(i int) error
	}{
		{"msgnet.round", func(i int) error {
			_, err := msgnet.RunRounds(ladderN, ladderF, ladderRounds, netCfg(i), nil)
			return err
		}},
		{"reliablelink.round", func(i int) error {
			_, _, err := reliablelink.RunRounds(ladderN, ladderF, ladderRounds, reliablelink.RoundsConfig{Net: netCfg(i)}, nil)
			return err
		}},
		{"recovery.round", func(i int) error {
			_, err := recovery.RunRounds(ladderN, ladderF, ladderRounds, recovery.Config{Net: netCfg(i)})
			return err
		}},
	}
	for _, rg := range rungs {
		ns, err := ld.rung(rg.name, calls, rg.fn)
		if err != nil {
			return err
		}
		ld.out[rg.name+"_us"] = ns / ladderRounds / 1e3
	}
	return nil
}

func (ld *ladder) netsub() error {
	calls := ld.r.n(ladderCalls)

	// Round trip: two loopback nodes, heartbeats off, p1 echoing.
	lns := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	nodes := make([]*netsub.Node, 2)
	for i := range nodes {
		nd, err := netsub.Start(netsub.Config{
			Me: core.PID(i), N: 2, Addrs: addrs, Listener: lns[i], HeartbeatEvery: -1,
		})
		if err != nil {
			return err
		}
		defer nd.Close()
		nodes[i] = nd
	}
	a, b := nodes[0], nodes[1]
	echoDone := make(chan struct{})
	go func() {
		defer close(echoDone)
		for {
			env, err := b.Recv()
			if err != nil {
				return // b closed
			}
			for {
				err := b.Send(0, env.Payload)
				if err == nil {
					break // a full queue sheds; a drains it
				}
				if errors.Is(err, netsub.ErrClosed) {
					return
				}
			}
		}
	}()
	msg := netsub.RoundMsg{Round: 1, Value: "bench-payload"}
	ns, err := ld.rung("netsub.rtt", calls, func(int) error {
		if err := a.Send(1, msg); err != nil {
			return err
		}
		_, err := a.Recv()
		return err
	})
	b.Close()
	<-echoDone
	if err != nil {
		return err
	}
	ld.out["netsub.rtt_us"] = ns / 1e3

	// Round: one RunRounds execution of many rounds. Node 0's emit
	// callback marks the start of each of its rounds, so consecutive
	// marks are round times with no start-up or linger in them. The
	// rounds are lock-step (f=0): with f=1 the two fastest nodes race
	// ahead of the third, its 64-frame queues shed, and every round it
	// then lacks costs it a full watchdog — minutes for this probe.
	sp := ld.l.begin(ld.root.id, "netsub.round")
	warm := calls / 10
	marks := make([]time.Time, 0, warm+calls+1)
	_, rep, err := netsub.RunRounds(ladderN, 0, warm+calls+1, netsub.RoundsConfig{
		Node:   netsub.Config{HeartbeatEvery: -1},
		Linger: 20 * time.Millisecond,
	}, func(me core.PID, _ int, _ map[core.PID]core.Value, _ core.Set) core.Value {
		if me == 0 {
			marks = append(marks, time.Now())
		}
		return int(me)
	})
	ld.l.end(sp)
	if err != nil {
		return fmt.Errorf("netsub.round: %w", err)
	}
	if rep.Stalled() {
		return fmt.Errorf("netsub.round: a loopback round stalled: %v", rep.Stalls[0])
	}
	rounds := make([]int64, 0, calls)
	for i := warm + 1; i < len(marks); i++ {
		rounds = append(rounds, int64(marks[i].Sub(marks[i-1])))
	}
	ld.out["netsub.round_us"] = medianNS(rounds) / 1e3
	return nil
}

func (ld *ladder) wal() error {
	calls := ld.r.n(ladderCalls)
	payload := []byte("f1-0-123456\x00\x01\x02\x03") // the size of a serve decision record
	for _, mode := range []struct {
		name string
		sync wal.SyncMode
	}{{"wal.append", wal.SyncNever}, {"wal.append_fsync", wal.SyncAlways}} {
		log, err := wal.Create(filepath.Join(ld.r.dir, mode.name), wal.Options{Sync: mode.sync})
		if err != nil {
			return err
		}
		g := wal.NewGroup(log, wal.GroupOptions{})
		ns, err := ld.rung(mode.name, calls, func(int) error {
			_, err := g.Append(3, payload)
			return err
		})
		g.Close()
		log.Close()
		if err != nil {
			return err
		}
		ld.out[mode.name+"_us"] = ns / 1e3
	}
	return nil
}

// idleCluster is the ladder's service set-up: the workloads' cluster
// shape with one serial client, so nothing queues anywhere.
func (ld *ladder) idleCluster(name string, sync wal.SyncMode, reg *hist.Registry) (*serve.Cluster, *serve.Client, error) {
	cl, err := serve.StartCluster(serve.ClusterConfig{
		N: svcN, F: svcF, K: svcK,
		Dir:            filepath.Join(ld.r.dir, name),
		Sync:           sync,
		Shards:         4,
		MaxInflight:    65536,
		RequestTimeout: svcRequestTimeout,
		Seed:           1,
		Hist:           reg,
		Mesh:           svcMesh,
	})
	if err != nil {
		return nil, nil, err
	}
	c := serve.NewClient(serve.ClientConfig{Addr: cl.ClientAddrs()[0], Timeout: svcRequestTimeout, Seed: 1})
	if resp, err := c.Submit("warm", "warm", 0); err != nil || resp.Status != serve.StatusDecided {
		c.Close()
		cl.Close()
		return nil, nil, fmt.Errorf("%s warm-up: status %q err %v", name, resp.Status, err)
	}
	return cl, c, nil
}

func decided(resp serve.Response, err error) error {
	if err != nil {
		return err
	}
	if resp.Status != serve.StatusDecided {
		return fmt.Errorf("status %q", resp.Status)
	}
	return nil
}

// freshRung times serial fresh decides: the whole blocking chain of a
// decide with no concurrency to hide any of it.
func (ld *ladder) freshRung(name string, c *serve.Client, calls int) (float64, error) {
	return ld.rung(name, calls, func(i int) error {
		inst := name + strconv.Itoa(i)
		return decided(c.Submit(inst, inst, i))
	})
}

func (ld *ladder) serve() error {
	calls := ld.r.n(ladderCalls)
	cl, c, err := ld.idleCluster("serve-idle", wal.SyncNever, nil)
	if err != nil {
		return err
	}
	defer cl.Close()
	defer c.Close()

	fresh, err := ld.freshRung("serve.fresh_rtt", c, calls)
	if err != nil {
		return err
	}
	ld.out["serve.fresh_rtt_us"] = fresh / 1e3

	// The instances the fresh rung decided are the ones hit and queried.
	warm := calls / 10
	inst := func(i int) string { return "serve.fresh_rtt" + strconv.Itoa(warm+i%calls) }
	ns, err := ld.rung("serve.hit_rtt", calls, func(i int) error {
		return decided(c.Submit(inst(i), "hit"+strconv.Itoa(i), -1))
	})
	if err != nil {
		return err
	}
	ld.out["serve.hit_rtt_us"] = ns / 1e3
	if ns, err = ld.rung("serve.query_rtt", calls, func(i int) error {
		return decided(c.Query(inst(i)))
	}); err != nil {
		return err
	}
	ld.out["serve.query_rtt_us"] = ns / 1e3

	// obs.hist_overhead: the same serial decide with the service's own
	// histograms attached.
	clH, cH, err := ld.idleCluster("serve-hist", wal.SyncNever, hist.NewRegistry())
	if err != nil {
		return err
	}
	defer clH.Close()
	defer cH.Close()
	withHist, err := ld.freshRung("serve.fresh_rtt+hist", cH, calls)
	if err != nil {
		return err
	}
	ld.out["obs.hist_overhead"] = withHist / fresh

	// The same serial decide under SyncAlways: with nothing else in the
	// committers, what it adds over fresh_rtt is exactly the fsyncs on one
	// decide's blocking chain.
	clS, cS, err := ld.idleCluster("serve-fsync", wal.SyncAlways, nil)
	if err != nil {
		return err
	}
	defer clS.Close()
	defer cS.Close()
	durable, err := ld.freshRung("serve.fresh_fsync_rtt", cS, ld.r.n(ladderCalls/4))
	if err != nil {
		return err
	}
	ld.out["serve.fresh_fsync_rtt_us"] = durable / 1e3
	return nil
}

// loadgen prices the generator's own share of every request: a
// serve.Client round trip against a TCP peer that answers each line
// with a canned response, so only client JSON and the loopback remain.
func (ld *ladder) loadgen() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		for {
			if _, err := br.ReadSlice('\n'); err != nil {
				return
			}
			if _, err := conn.Write([]byte(`{"req":"x","inst":"x","status":"decided","val":1,"incarnation":1}` + "\n")); err != nil {
				return
			}
		}
	}()
	c := serve.NewClient(serve.ClientConfig{Addr: ln.Addr().String(), Timeout: svcRequestTimeout, MaxAttempts: 1})
	ns, err := ld.rung("loadgen.client_encode", ld.r.n(ladderCalls), func(i int) error {
		inst := "null" + strconv.Itoa(i)
		return decided(c.Submit(inst, inst, i))
	})
	c.Close()
	ln.Close()
	<-served
	if err != nil {
		return err
	}
	ld.out["loadgen.client_encode_us"] = ns / 1e3
	return nil
}

// mc explores every crash schedule of FloodMin on n=4, f=2, 3 rounds:
// fixed work whose schedule and prune counts repeat exactly.
func (ld *ladder) mc() error {
	const n, f, rounds = 4, 2, 3
	enum, err := adversary.EnumSyncCrash(n, f)
	if err != nil {
		return err
	}
	inputs := identity(n)
	var res *mc.Result
	ns, err := ld.rung("mc.explore", ld.r.n(3), func(int) error {
		res, err = mc.Explore(mc.Options{Workers: simWorkers}, mc.CheckRun(mc.RunSpec{
			N: n, Inputs: inputs,
			Factory: agreement.FloodMin(rounds),
			Oracle:  func(ctx *mc.Ctx) core.Oracle { return adversary.Enumerated(ctx, n, enum) },
			Props:   []mc.Property{mc.Validity(inputs), mc.KAgreement(f + 1)},
			Mark:    true,
		}))
		if err == nil && (res.Counterexample != nil || !res.Exhausted) {
			err = fmt.Errorf("exhausted %v, counterexample %v", res.Exhausted, res.Counterexample)
		}
		return err
	})
	if err != nil {
		return err
	}
	ld.out["mc.schedules"] = float64(res.Schedules)
	ld.out["mc.pruned"] = float64(res.Pruned)
	ld.out["mc.schedules_per_s"] = float64(res.Schedules) / (ns / 1e9)
	return nil
}

// checkers runs the hand-written and the compiled eq. (3) checker over
// one fixed n=16, 8-round trace: the record ROADMAP item 3 asks for
// before the hand-written one is deleted.
func (ld *ladder) checkers() error {
	const n, f, rounds = 16, 5, 8
	calls := ld.r.n(ladderCalls)
	tr, err := core.CollectTrace(n, rounds, adversary.AsyncBudget(n, f, false, 1))
	if err != nil {
		return err
	}
	hand := predicate.PerRoundBudget(f)
	var compiled predicate.P
	ns, err := ld.rung("hoalg.compile", calls, func(int) error {
		compiled = hoalg.PerRound(f).Compile()
		return nil
	})
	if err != nil {
		return err
	}
	ld.out["hoalg.compile_us"] = ns / 1e3
	for _, c := range []struct {
		name string
		p    predicate.P
	}{{"predicate.check", hand}, {"hoalg.check", compiled}} {
		if ns, err = ld.rung(c.name, calls, func(int) error { return c.p.Check(tr) }); err != nil {
			return err
		}
		ld.out[c.name+"_us"] = ns / 1e3
	}
	return nil
}

// obs prices the Metrics observer on the engine: the same core.Run with
// and without it.
func (ld *ladder) obs() error {
	const n, rounds = 16, 10
	calls := ld.r.n(ladderCalls)
	inputs := identity(n)
	m := obs.NewMetrics()
	var ns [2]float64
	for i, opts := range [][]core.Option{
		{core.WithoutTrace()},
		{core.WithoutTrace(), core.WithObserver(m)},
	} {
		var err error
		ns[i], err = ld.rung([]string{"core.run", "core.run+metrics"}[i], calls, func(int) error {
			_, err := core.Run(n, inputs, agreement.FloodMin(rounds), adversary.Benign(n), opts...)
			return err
		})
		if err != nil {
			return err
		}
	}
	ld.out["obs.metrics_overhead"] = ns[1] / ns[0]
	return nil
}

// fleet records the sharded engine's throughput at one and two shards.
// Nothing imports the package today; the number is what ROADMAP item 2's
// fold-or-promote decision gets to look at.
func (ld *ladder) fleet() error {
	for _, shards := range []int{1, 2} {
		cfg := fleet.Config{
			Instances: 4096, Procs: 4, F: 1, BaseRounds: 2, RoundSpread: 2, Seed: 7,
			Shards: shards, Workers: simWorkers,
		}
		var res *fleet.Result
		ns, err := ld.rung("fleet.run", ld.r.n(20), func(int) (err error) {
			res, err = fleet.Run(cfg)
			return err
		})
		if err != nil {
			return err
		}
		ld.out[fmt.Sprintf("fleet.instrounds_per_s_s%d", shards)] = float64(res.InstanceRounds()) / (ns / 1e9)
	}
	return nil
}
