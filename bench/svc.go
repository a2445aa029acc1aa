package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/netsub"
	"repro/internal/obs/hist"
	"repro/internal/serve"
	"repro/internal/wal"
)

// The service workloads share one shape: an in-process loopback cluster
// (n=3, f=1, k=2, 4 shards), two closed-loop clients — serve.Client is a
// synchronous caller, so closed loop is what its users generate — each
// with one connection to one node, and MaxAttempts=1 so a failed request
// is counted instead of hidden by a retry. No message delay is injected:
// the latencies are processor, kernel and disk time only. Everything
// shares the one processor runOne allows, so a request also waits for
// whatever the other client's request is doing.
const (
	svcN, svcF, svcK  = 3, 1, 2
	svcClients        = 2
	svcRequestTimeout = 2 * time.Second
	svcVictim         = 2 // the node svc-reads-recover kills

	// svcWarmRequests is how many requests each client makes at the end
	// of set-up, before anything is timed: connections, shard loops, the
	// journal and the heap reach their steady state on set-up's account.
	svcWarmRequests = 1000

	// rateWindows is how many equal windows the measured phase is cut
	// into at scale 1. The yardstick is sampled after each, every latency
	// is divided by its window's factor, and throughput is the median
	// window's, so one stall (a GC cycle, a noisy neighbour) does not
	// move it as it would a mean.
	rateWindows = 30
)

// svcMesh deepens the per-peer send queue from netsub's default of 64
// frames. At ~20k frames a second per lane, 64 frames are 3 ms of
// writer stall; stalls that long happen, the queue
// sheds, and serve never retransmits a shed proposal — measured with
// the default: 653 sheds in 85k decides, and about one request in half a
// million abstaining after the full RequestTimeout. A benchmark's
// workload must not fail by design, so the queue is deep enough to ride
// a stall out; the shedding itself is listed in README.md as a finding.
var svcMesh = netsub.Config{SendQueue: 4096}

type svcSpec struct {
	sync    wal.SyncMode
	preload int  // decided instances loaded during set-up
	mix     bool // 60% re-submission, 30% query, 10% fresh; else all fresh
	recover bool // kill and restart svcVictim after the timed phase
}

var svcSpecs = map[string]svcSpec{
	"svc-decide":        {sync: wal.SyncNever},
	"svc-durable":       {sync: wal.SyncAlways},
	"svc-reads-recover": {sync: wal.SyncNever, preload: 20000, mix: true, recover: true},
}

// ack is one decision a node acknowledged to a benchmark client.
type ack struct {
	inst string
	val  int
}

// client is one closed-loop caller and everything it saw.
type client struct {
	id, node int
	c        *serve.Client
	l        *lane // the client goroutine's spans
	rng      *rand.Rand
	pick     *rand.Zipf
	seq      int

	lat      []int64 // ns, successful requests only
	done     []int   // successful requests per window of the phase
	acks     []ack   // fresh decisions its node acknowledged
	fresh    int     // fresh decisions among lat
	failed   int
	offender string
}

// svcEnv is one set-up: a running cluster, its clients, and the
// decisions the preload produced (index → value).
type svcEnv struct {
	dir     string
	cl      *serve.Cluster
	reg     *hist.Registry
	clients []*client
	preVal  []int

	// victimAcks are the decisions svcVictim acknowledged to the recover
	// loop's own client, which is not one of clients.
	victimAcks []ack

	closed bool
}

// acksOf lists every decision node acknowledged to the benchmark.
func (e *svcEnv) acksOf(node int) []ack {
	var all []ack
	if node == svcVictim {
		all = append(all, e.victimAcks...)
	}
	for _, c := range e.clients {
		if c.node == node {
			all = append(all, c.acks...)
		}
	}
	return all
}

func (e *svcEnv) close() {
	if e.closed {
		return
	}
	e.closed = true
	for _, c := range e.clients {
		c.c.Close()
	}
	e.cl.Close()
}

// newPicker draws preloaded-instance indexes with Zipf skew, so hot
// instances repeat; the sequence is a pure function of the seed.
func newPicker(seed int64, n int) *rand.Zipf {
	return rand.NewZipf(rand.New(rand.NewSource(seed)), 1.2, 1, uint64(n-1))
}

func preInst(seed int64, i int) string {
	return "p" + strconv.FormatInt(seed, 10) + "-" + strconv.Itoa(i)
}

// svcSetup starts a cluster under dir, connects the clients and has each
// decide one instance (which dials the mesh), then preloads.
func svcSetup(r *run, spec svcSpec, dir string) (*svcEnv, error) {
	e := &svcEnv{dir: dir}
	if r.tr != nil {
		e.reg = hist.NewRegistry()
	}
	cl, err := serve.StartCluster(serve.ClusterConfig{
		N: svcN, F: svcF, K: svcK,
		Dir:            dir,
		Sync:           spec.sync,
		Shards:         4,
		MaxInflight:    65536,
		RequestTimeout: svcRequestTimeout,
		Seed:           r.seed,
		Hist:           e.reg,
		Mesh:           svcMesh,
	})
	if err != nil {
		return nil, err
	}
	e.cl = cl
	addrs := cl.ClientAddrs()
	pins := rand.New(rand.NewSource(r.seed)).Perm(svcN)
	for i := 0; i < svcClients; i++ {
		// The warm-up decide may retry: until every node has dialled its
		// peers a proposal can miss its quorum, and that is set-up cost,
		// not a request failure.
		warm := serve.NewClient(serve.ClientConfig{Addr: addrs[pins[i]], Timeout: svcRequestTimeout, Seed: r.seed})
		id := fmt.Sprintf("warm%d-%d", r.seed, i)
		resp, err := warm.Submit(id, id, i)
		warm.Close()
		if err != nil || resp.Status != serve.StatusDecided {
			cl.Close()
			return nil, fmt.Errorf("warm-up decide on node %d: status %q err %v", pins[i], resp.Status, err)
		}
		e.clients = append(e.clients, &client{
			id: i, node: pins[i],
			c: serve.NewClient(serve.ClientConfig{
				Addr: addrs[pins[i]], Timeout: svcRequestTimeout, MaxAttempts: 1, Seed: r.seed + int64(i),
			}),
			l:    r.tr.lane(),
			rng:  rand.New(rand.NewSource(r.seed*31 + int64(i))),
			done: make([]int, r.n(rateWindows)),
		})
	}

	n := 0
	if spec.preload > 0 {
		n = r.n(spec.preload)
	}
	e.preVal = make([]int, n)
	errs := make([]error, svcClients)
	e.perClient(func(c *client, _ *lane) {
		if n > 0 {
			c.pick = newPicker(r.seed+int64(c.id), n)
		}
		for i := c.id; i < n; i += svcClients {
			inst, val := preInst(r.seed, i), int(r.seed)+i
			resp, err := c.c.Submit(inst, inst, val)
			if err != nil || resp.Status != serve.StatusDecided {
				errs[c.id] = fmt.Errorf("preload %s: status %q err %v", inst, resp.Status, err)
				return
			}
			e.preVal[i] = resp.Val
			c.acks = append(c.acks, ack{inst, resp.Val})
		}
	})
	for _, err := range errs {
		if err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

// perClient runs fn once per client, each on its own goroutine with the
// client's span lane, and waits for all of them.
func (e *svcEnv) perClient(fn func(c *client, l *lane)) {
	var wg sync.WaitGroup
	for _, c := range e.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			fn(c, c.l)
		}(c)
	}
	wg.Wait()
}

// warm has every client make svcWarmRequests requests of the workload's
// own mix and forgets their timings; a wrong answer still counts.
func (e *svcEnv) warm(r *run, mix bool, l *lane, parent int32) (failed int, offender string) {
	e.perClient(func(c *client, l *lane) {
		for i := 0; i < r.n(svcWarmRequests); i++ {
			c.request(r, e, mix, 0, l, parent)
		}
	})
	for _, c := range e.clients {
		failed += c.failed
		if offender == "" {
			offender = c.offender
		}
		c.lat, c.fresh, c.failed, c.done = c.lat[:0], 0, 0, make([]int, r.n(rateWindows))
	}
	return failed, offender
}

// request issues the client's next request and checks the answer against
// the one value it can legitimately carry. Every fresh instance has a
// single proposer, so validity pins its decision to the proposed value;
// a re-submission proposes a different value under a new request id and
// must still get the original decision (idempotency); a query must find
// it. Any other outcome — error, abstain, overload, wrong value — fails.
func (c *client) request(r *run, e *svcEnv, mix bool, window int, l *lane, parent int32) {
	sp := l.begin(parent, "request")
	kind := 100 // fresh
	if mix {
		kind = c.rng.Intn(100)
	}
	var inst, req, what string
	var val, want int
	switch {
	case kind < 90: // 60% re-submission of a decided instance, 30% query
		i := int(c.pick.Uint64())
		inst, want = preInst(r.seed, i), e.preVal[i]
		req, val, what = "r"+strconv.Itoa(c.id)+"-"+strconv.Itoa(c.seq), want+1, "re-submit"
		if kind >= 60 {
			what = "query"
		}
	default:
		inst = "f" + strconv.FormatInt(r.seed, 10) + "-" + strconv.Itoa(c.id) + "-" + strconv.Itoa(c.seq)
		val = c.rng.Intn(1 << 20)
		req, want, what = inst, val, "fresh submit"
	}
	c.seq++

	var resp serve.Response
	var err error
	at := l.begin(sp.id, "attempt")
	t0 := time.Now()
	if what == "query" {
		resp, err = c.c.Query(inst)
	} else {
		resp, err = c.c.Submit(inst, req, val)
	}
	d := time.Since(t0)
	l.end(at)

	if err == nil && resp.Status == serve.StatusDecided && resp.Val == want {
		c.lat = append(c.lat, int64(d))
		c.done[window]++
		if kind >= 90 {
			c.fresh++
			c.acks = append(c.acks, ack{inst, resp.Val})
		}
	} else {
		c.failed++
		if c.offender == "" {
			c.offender = fmt.Sprintf("%s %s on node %d: status %q val %d (want %d) err %v",
				what, inst, c.node, resp.Status, resp.Val, want, err)
		}
	}
	l.end(sp)
}

// drive runs every client closed-loop for d, window by window, samples
// the yardstick after each window, and adds each window to out as one
// slice.
func drive(r *run, e *svcEnv, out *outcome, mix bool, d time.Duration, phase open) {
	windows := r.n(rateWindows)
	for w := 0; w < windows; w++ {
		start := time.Now()
		e.perClient(func(c *client, l *lane) {
			for time.Since(start) < d/time.Duration(windows) {
				c.request(r, e, mix, w, l, phase.id)
			}
		})
		took := time.Since(start)
		f := r.yard.sample()
		var lat []int64
		for _, c := range e.clients {
			lat = append(lat, c.lat[len(c.lat)-c.done[w]:]...)
		}
		out.addSlice(lat, len(lat), took, f)
	}
}

// counts is a cluster-wide snapshot of the counters the layers export;
// a phase's work is the difference of two.
type counts map[string]int64

func snapshot(e *svcEnv) counts {
	k := counts{}
	for _, s := range e.cl.Servers {
		st, js, ms := s.Stats(), s.JournalStats(), s.Mesh().Stats()
		k["decisions"] += st.Decisions
		k["adopted"] += st.Adopted
		k["submits"] += st.Submits
		k["hits"] += st.IdempotentHits
		k["abstains"] += st.Abstains
		k["overloads"] += st.Overloads
		k["evictions"] += st.Evictions
		k["appends"] += js.Appends
		k["batches"] += js.Batches
		k["frames"] += ms.FramesSent
		k["sheds"] += ms.Sheds
	}
	for _, c := range e.clients {
		k["attempts"] += c.c.Attempts
	}
	return k
}

func (k counts) since(before counts) counts {
	d := counts{}
	for name, v := range k {
		d[name] = v - before[name]
	}
	return d
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func runSvc(r *run) (*outcome, error) {
	spec := svcSpecs[r.workload]
	out := &outcome{extra: map[string]float64{}, layer: map[string]float64{}}
	l := r.tr.lane()
	root := l.begin(0, r.workload)
	defer func() { l.end(root) }()

	// Set-up is repeated so setup_s is a median; the last one is kept.
	var e *svcEnv
	for i := 0; i < r.n(setupRepeats); i++ {
		sp := l.begin(root.id, "setup")
		t0 := time.Now()
		env, err := svcSetup(r, spec, filepath.Join(r.dir, fmt.Sprintf("wal%d", i)))
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		wsp := l.begin(sp.id, "warmup")
		failed, offender := env.warm(r, spec.mix, l, wsp.id)
		l.end(wsp)
		d := time.Since(t0)
		l.end(sp)
		out.addSetup(d, r.yard.sample())
		if out.failed += failed; out.offender == "" {
			out.offender = offender
		}
		if i < r.n(setupRepeats)-1 {
			env.close()
			os.RemoveAll(env.dir)
		}
		e = env
	}
	defer e.close()
	out.heapMB = liveHeapMB()
	m0 := readMem()

	// The registry and the counters cover the measured phase only.
	if e.reg != nil {
		e.reg.Reset()
	}
	before := snapshot(e)
	sp := l.begin(root.id, "measure")
	drive(r, e, out, spec.mix, time.Duration(r.seconds*float64(time.Second)), sp)
	l.end(sp)
	d := snapshot(e).since(before)

	var fresh int64
	for _, c := range e.clients {
		out.failed += c.failed
		fresh += int64(c.fresh)
		if out.offender == "" {
			out.offender = c.offender
		}
	}
	out.allocKB = allocKB(m0, readMem(), out.ops)
	out.attempted = out.ops + out.failed

	if r.tr != nil {
		lay := out.layer
		lay["netsub.frames_per_decide"] = ratio(d["frames"], fresh)
		lay["netsub.sheds"] = ratio(d["sheds"], fresh)
		lay["wal.recs_per_sync"] = ratio(d["appends"], d["batches"])
		if spec.sync == wal.SyncAlways {
			// Only under SyncAlways is a committed batch an fsync.
			lay["wal.syncs_per_decide"] = ratio(d["batches"], fresh)
		}
		lay["serve.adopted_share"] = ratio(d["adopted"], d["decisions"]+d["adopted"])
		lay["serve.abstains"] = float64(d["abstains"])
		lay["serve.overloads"] = float64(d["overloads"])
		lay["serve.evictions"] = float64(d["evictions"])
		lay["serve.idempotent_hit_share"] = ratio(d["hits"], d["submits"])
		lay["loadgen.attempts_per_req"] = ratio(d["attempts"], int64(out.attempted))
		hs := e.reg.Snapshot()
		lay["serve.decide_ns_p50"] = float64(hs["serve_decide_ns"].Quantile(0.5))
		lay["serve.request_ns_p50"] = float64(hs["serve_request_ns"].Quantile(0.5))
		lay["serve.inflight_p99"] = float64(hs["serve_inflight_depth"].Quantile(0.99))
		lay["serve.bcast_batch_mean"] = hs["serve_bcast_batch"].Mean()
		lay["serve.wal_batch_mean"] = hs["serve_wal_batch"].Mean()
	}

	if spec.recover {
		sp = l.begin(root.id, "recover")
		err := svcRecover(r, e, out, l, sp.id)
		l.end(sp)
		if err != nil {
			return nil, err
		}
	}

	sp = l.begin(root.id, "audit")
	defer func() { l.end(sp) }()
	e.close()
	return out, svcAudit(r, e, out)
}

// svcRecover measures how long a killed node is useless: Kill, Restart,
// then one fresh submit to it, retried under the same request id until
// it is decided. The abstains inside this loop are the thing measured,
// so they are not failures. After each restart, every decision the node
// had acknowledged must be in what it recovered from its journal.
func svcRecover(r *run, e *svcEnv, out *outcome, l *lane, parent int32) error {
	kills := 1 // untraced: enough for the audit and one recover_ms sample
	if r.tr != nil {
		kills = r.n(5)
	}
	// The victim's peers redial it after each restart; their reconnect
	// counters survive the loop, the victim's own Server does not.
	reconnects := func() (n int64) {
		for i, s := range e.cl.Servers {
			if i != svcVictim {
				n += s.Mesh().Stats().Reconnects
			}
		}
		return n
	}
	before := reconnects()
	var restart, firstAck, total []float64
	for i := 0; i < kills; i++ {
		sp := l.begin(parent, "kill-restart")
		t0 := time.Now()
		e.cl.Servers[svcVictim].Kill()
		s, err := e.cl.Restart(svcVictim, nil)
		if err != nil {
			return err
		}
		t1 := time.Now()
		l.end(sp)

		rec := s.RecoveredDecisions()
		for _, a := range e.acksOf(svcVictim) {
			out.attempted++
			if got, ok := rec[a.inst]; !ok || got != a.val {
				out.failed++
				if out.offender == "" {
					out.offender = fmt.Sprintf("node %d acknowledged %s=%d but recovered %d (present %v)", svcVictim, a.inst, a.val, got, ok)
				}
			}
		}

		sp = l.begin(parent, "first-ack")
		rc := serve.NewClient(serve.ClientConfig{
			Addr: e.cl.ClientAddrs()[svcVictim], Timeout: svcRequestTimeout, MaxAttempts: 1, Seed: r.seed,
		})
		inst, val := fmt.Sprintf("k%d-%d", r.seed, i), 7+i
		decided := false
		for try := 0; try < 10 && !decided; try++ {
			at := l.begin(sp.id, "attempt")
			resp, err := rc.Submit(inst, inst, val)
			l.end(at)
			decided = err == nil && resp.Status == serve.StatusDecided && resp.Val == val
		}
		rc.Close()
		t2 := time.Now()
		l.end(sp)
		if !decided {
			return fmt.Errorf("node %d never decided %s after restart %d", svcVictim, inst, i)
		}
		e.victimAcks = append(e.victimAcks, ack{inst, val})
		restart = append(restart, ms(t1.Sub(t0)))
		firstAck = append(firstAck, ms(t2.Sub(t1)))
		total = append(total, ms(t2.Sub(t0)))
	}
	out.extra["recover_ms"] = median(total)
	out.layer["netsub.reconnects"] = ratio(reconnects()-before, int64(kills))
	out.layer["serve.recover_ms"] = median(total)
	out.layer["serve.restart_ms"] = median(restart)
	out.layer["serve.first_ack_ms"] = median(firstAck)
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// svcAudit reads every node's journal offline, after the cluster has
// stopped: each acknowledged decision must be on its node's disk with
// the acknowledged value (journal-before-ack), no instance may be
// journaled twice, and no instance may carry more than k distinct
// values across the nodes.
func svcAudit(r *run, e *svcEnv, out *outcome) error {
	miss := func(format string, args ...any) {
		out.failed++
		if out.offender == "" {
			out.offender = fmt.Sprintf(format, args...)
		}
	}
	journals := make([]*serve.JournalState, svcN)
	var replay []float64
	var bytes int64
	for i := range journals {
		dir := filepath.Join(e.dir, fmt.Sprintf("n%d", i))
		if r.tr != nil {
			t0 := time.Now()
			_, rep, err := wal.Replay(dir)
			if err != nil {
				return fmt.Errorf("replay journal of node %d: %w", i, err)
			}
			replay = append(replay, float64(rep.Records)/time.Since(t0).Seconds())
		}
		js, err := serve.ReadJournal(dir)
		if err != nil {
			return fmt.Errorf("read journal of node %d: %w", i, err)
		}
		journals[i] = js
		for _, inst := range js.DuplicateDecisions {
			miss("node %d journaled two decisions for %s", i, inst)
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, ent := range ents {
			if info, err := ent.Info(); err == nil {
				bytes += info.Size()
			}
		}
	}
	for node, js := range journals {
		for _, a := range e.acksOf(node) {
			out.attempted++
			if got, ok := js.Decisions[a.inst]; !ok || got != a.val {
				miss("node %d acknowledged %s=%d but journaled %d (present %v)", node, a.inst, a.val, got, ok)
			}
		}
	}
	distinct := map[string]map[int]bool{}
	for _, js := range journals {
		for inst, val := range js.Decisions {
			if distinct[inst] == nil {
				distinct[inst] = map[int]bool{}
			}
			distinct[inst][val] = true
		}
	}
	for inst, vals := range distinct {
		if len(vals) > svcK {
			miss("%s decided %d distinct values, k=%d", inst, len(vals), svcK)
		}
	}
	if r.tr != nil {
		out.layer["wal.replay_recs_per_s"] = median(replay)
		out.layer["wal.bytes_per_decide"] = ratio(bytes, int64(len(distinct)))
	}
	return nil
}
