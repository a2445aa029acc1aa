// Package serve is agreement-as-a-service: one Server multiplexes many
// concurrent k-set agreement instances over a single netsub peer mesh,
// journals per-instance proposals and decisions through internal/wal so
// an acknowledged decision survives kill-and-restart, and defends itself
// under overload.
//
// The protocol per instance is the quorum form of §2 item 3: each server
// adopts the first value it hears for an instance (its own client's, or
// a peer's) as its proposal, broadcasts it, and decides the minimum of
// the first n−f proposals it gathers. Views that contain n−f of the n
// proposals overlap enough that at most f+1 distinct minima exist, so
// k-agreement holds for k ≥ f+1 — the same eq. (3) argument the
// simulation stack checks, here per instance. Decisions are broadcast and
// adopted, which only merges decision sets and never widens them.
//
// Robustness is the headline, in three layers:
//
//   - Durability: proposals and decisions are journaled before a decision
//     is acknowledged to any client (journal-before-ack). A killed and
//     restarted server replays its WAL, re-enters the mesh with the next
//     incarnation, and still holds every decision it ever acknowledged.
//     The Config.AckBeforeJournalBug flag plants the classic inversion of
//     this rule for the chaos campaign to catch.
//   - Admission control: the in-flight instance table is bounded; a
//     submit that would exceed it is shed with a structured
//     *OverloadError (StatusOverload on the wire) instead of queued.
//   - Deadlines: every request carries a deadline; when it expires before
//     a quorum view forms the server answers abstain-and-report
//     (StatusAbstain with view progress) instead of hanging, and an
//     undecided instance is evicted after a TTL so the table stays
//     bounded under churn.
//
// Throughput comes from sharding: the instance table is split across
// Config.Shards independent event loops, each owning the instances that
// hash to it, so concurrent submits for different instances never
// serialize on one loop. Cross-cutting state is three atomics (global
// in-flight count for admission, acked-decision count for the crash
// hook, plus the stat counters) — no server-wide mutex sits on the
// decide path. The journal is shared through a wal.Group, which
// coalesces the shards' concurrent appends into one write+fsync per
// batch while preserving journal-before-ack per record; decide and
// propose broadcasts funnel through a batcher goroutine that packs
// whatever accumulated into one pmBatch mesh frame per peer — greedy, so
// an idle server still sends every message immediately.
//
// A request that times out, gets shed, or hits a dead server is safely
// retried by Client with seeded-jitter backoff and the same request ID:
// the decision table makes every retry idempotent.
package serve

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/netsub"
	"repro/internal/obs"
	"repro/internal/obs/hist"
	"repro/internal/wal"
)

// Config shapes one serving node.
type Config struct {
	// Me is this server's pid; N the mesh size; F the crash bound. The
	// decision rule gathers n−f proposals, so decisions stay within the
	// k = f+1 bound of eq. (3).
	Me core.PID
	N  int
	F  int

	// MeshAddrs maps each pid to its mesh listen address. MeshListener,
	// when non-nil, is the pre-bound mesh listener (else MeshAddrs[Me]
	// is bound).
	MeshAddrs    []string
	MeshListener net.Listener

	// ClientAddr is the client-facing listen address ("127.0.0.1:0" for
	// an ephemeral port); ClientListener, when non-nil, wins.
	ClientAddr     string
	ClientListener net.Listener

	// WALDir is the journal directory. Start replays whatever is there:
	// a fresh directory is incarnation 1, a survivor of a kill restarts
	// as incarnation boots+1 and still holds every journaled decision.
	WALDir string

	// Sync is the journal fsync policy. The zero value (wal.SyncNever)
	// survives process kills but not power loss; production servers and
	// the chaos campaigns run wal.SyncAlways.
	Sync wal.SyncMode

	// Shards is the number of independent instance-table shards, each
	// with its own event loop; instances hash to a shard. Sharding never
	// changes results (an instance's events still serialize on its owning
	// loop), only concurrency. 0 means 4.
	Shards int

	// MaxInflight bounds the undecided-instance table across all shards;
	// a submit that would open an instance beyond it is shed with
	// *OverloadError. 0 means 1024.
	MaxInflight int

	// RequestTimeout is the default per-request deadline (a request may
	// shorten or extend its own via TimeoutMS); past it the server
	// answers abstain. 0 means 2s.
	RequestTimeout time.Duration

	// InstanceTTL evicts an undecided instance (abstaining any waiters
	// still attached) so the table stays bounded; the journaled proposal
	// keeps a later resubmission first-wins consistent. 0 means
	// 2×RequestTimeout.
	InstanceTTL time.Duration

	// Mesh tunes the netsub transport (queue sizes, heartbeats, redial
	// policy). Me/N/Addrs/Listener/Incarnation/Seed/Observer/Hist are
	// overwritten from this Config.
	Mesh netsub.Config

	// Seed derives the mesh redial jitter.
	Seed int64

	// Observer, when non-nil, receives "serve.*" events; Hist, when
	// non-nil, receives request/decide latency and table depth
	// distributions, plus journal and broadcast batch sizes
	// ("serve_wal_batch", "serve_bcast_batch").
	Observer obs.Observer
	Hist     *hist.Registry

	// AckBeforeJournalBug plants the durability inversion: decisions are
	// acknowledged to clients before they are journaled, so a crash in
	// between loses an acknowledged decision. Exists to be caught by the
	// chaos campaign; never set it otherwise.
	AckBeforeJournalBug bool

	// CrashAfterAcks, when >0, halts the server abruptly (no clean
	// shutdown, Crashed() closes) immediately after the CrashAfterAcks-th
	// decision acknowledged to at least one client — the chaos campaign's
	// deterministic kill point.
	CrashAfterAcks int
}

func (c *Config) fill() error {
	if c.N <= 0 {
		return fmt.Errorf("serve: invalid mesh size %d", c.N)
	}
	if c.Me < 0 || int(c.Me) >= c.N {
		return fmt.Errorf("serve: pid %d outside mesh of %d", c.Me, c.N)
	}
	if c.F < 0 || c.F >= c.N {
		return fmt.Errorf("serve: need 0 <= f < n, got f=%d n=%d", c.F, c.N)
	}
	if c.WALDir == "" {
		return fmt.Errorf("serve: WALDir is required")
	}
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 1024
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 2 * time.Second
	}
	if c.InstanceTTL <= 0 {
		c.InstanceTTL = 2 * c.RequestTimeout
	}
	if c.ClientAddr == "" && c.ClientListener == nil {
		c.ClientAddr = "127.0.0.1:0"
	}
	return nil
}

// Stats is a point-in-time snapshot of a server's counters.
type Stats struct {
	// Submits counts submit requests received; IdempotentHits the subset
	// answered straight from the decision table (retries, duplicates).
	Submits        int64
	IdempotentHits int64

	// Decisions counts instances this server decided locally; Adopted
	// the decisions learned from peer broadcasts; AckedDecisions the
	// decisions acknowledged to at least one waiting client.
	Decisions      int64
	Adopted        int64
	AckedDecisions int64

	// Overloads counts submits shed by admission control; Abstains
	// counts requests degraded to abstain at their deadline; Evictions
	// counts undecided instances dropped at their TTL.
	Overloads int64
	Abstains  int64
	Evictions int64

	// PeerProposes and PeerDecides count mesh messages handled;
	// PeerSheds counts peer proposals dropped because the instance
	// table was full.
	PeerProposes int64
	PeerDecides  int64
	PeerSheds    int64

	// Queries counts query requests.
	Queries int64

	// RecoveredDecisions and RecoveredProposals count journal records
	// replayed at start; Incarnation is boots+1.
	RecoveredDecisions int64
	RecoveredProposals int64
	Incarnation        int
}

// counters is the lock-free internal form of Stats: every field is an
// atomic so no shard loop ever takes a server-wide mutex to count.
type counters struct {
	submits, idempotentHits              atomic.Int64
	decisions, adopted, ackedDecisions   atomic.Int64
	overloads, abstains, evictions       atomic.Int64
	peerProposes, peerDecides, peerSheds atomic.Int64
	queries                              atomic.Int64
}

// instance is one in-flight agreement instance.
type instance struct {
	id       string
	proposal int
	got      map[core.PID]int // pid → proposal heard (includes self)
	waiters  []*waiter
	start    time.Time
	gen      uint64 // guards TTL timers across evict/reopen
}

// waiter is one client request attached to an instance.
type waiter struct {
	req   string
	cc    *clientConn
	start time.Time
	timer *time.Timer
}

// event is the closed set of inputs a shard loop consumes.
type (
	submitEv struct {
		req   Request
		cc    *clientConn
		start time.Time
	}
	queryEv struct {
		req Request
		cc  *clientConn
	}
	peerEv struct {
		from core.PID
		kind byte
		inst string
		val  int
	}
	reqExpireEv struct {
		inst string
		req  string
	}
	instExpireEv struct {
		inst string
		gen  uint64
	}
)

// shardTable is the state one shard loop owns exclusively: the instances
// that hash to it. No lock — only the owning loop touches it.
type shardTable struct {
	inflight  map[string]*instance
	proposals map[string]int // first-wins proposal per instance, journaled
	decided   map[string]int
	gen       uint64
}

// maxBcastBatch bounds one coalesced broadcast frame.
const maxBcastBatch = 64

// Server is one agreement-service node. Start it with Start; stop it
// cleanly with Close, or abruptly (simulated kill) with Kill.
type Server struct {
	cfg   Config
	node  *netsub.Node
	cln   net.Listener
	log   *wal.Log
	group *wal.Group

	ev       []chan any // one event queue per shard loop
	bcast    chan []byte
	done     chan struct{}
	crashed  chan struct{}
	haltOne  sync.Once
	crashOne sync.Once
	wg       sync.WaitGroup
	wwg      sync.WaitGroup // connection writers, drained before conns close

	connMu sync.Mutex
	conns  map[*clientConn]struct{}
	halted bool // set under connMu; accepted conns arriving later are refused

	// Shard-loop-owned state: sh[i] is touched only by loop i.
	sh []shardTable

	// Cross-shard state, all atomic — nothing on the decide path takes a
	// server-wide lock.
	inflightN atomic.Int64 // global admission counter
	acked     atomic.Int64 // decisions acked to ≥1 client (crash hook)
	ctr       counters

	// recovered is the decision map as replayed from the WAL at Start,
	// frozen — the durability audit's ground truth.
	recovered map[string]int

	recoveredProposals int64
	incarnation        int

	hReq      *hist.Histogram
	hDecide   *hist.Histogram
	hInflight *hist.Histogram
	hBcast    *hist.Histogram
}

// Start opens (or creates) the WAL, replays it, joins the mesh as the
// next incarnation, and begins serving clients.
func Start(cfg Config) (*Server, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	log, recs, _, err := wal.Open(cfg.WALDir, wal.Options{Sync: cfg.Sync})
	if err != nil {
		return nil, fmt.Errorf("serve: open journal: %w", err)
	}
	s := &Server{
		cfg:       cfg,
		log:       log,
		ev:        make([]chan any, cfg.Shards),
		bcast:     make(chan []byte, 1024),
		done:      make(chan struct{}),
		crashed:   make(chan struct{}),
		conns:     make(map[*clientConn]struct{}),
		sh:        make([]shardTable, cfg.Shards),
		recovered: make(map[string]int),
	}
	for i := range s.sh {
		s.ev[i] = make(chan any, 1024)
		s.sh[i] = shardTable{
			inflight:  make(map[string]*instance),
			proposals: make(map[string]int),
			decided:   make(map[string]int),
		}
	}
	boots := 0
	for _, r := range recs {
		switch r.Kind {
		case recBoot:
			boots++
		case recProposal:
			inst, val, err := decodeInstValRecord(r.Payload)
			if err != nil {
				log.Close()
				return nil, fmt.Errorf("serve: journal seq %d: %w", r.Seq, err)
			}
			s.sh[s.shardOf(inst)].proposals[inst] = val
			s.recoveredProposals++
		case recDecision:
			inst, val, err := decodeInstValRecord(r.Payload)
			if err != nil {
				log.Close()
				return nil, fmt.Errorf("serve: journal seq %d: %w", r.Seq, err)
			}
			s.sh[s.shardOf(inst)].decided[inst] = val
			s.recovered[inst] = val
		}
	}
	s.incarnation = boots + 1
	if _, err := log.Append(recBoot, encodeBoot(s.incarnation)); err != nil {
		log.Close()
		return nil, err
	}

	var walBatchHist *hist.Histogram
	if cfg.Hist != nil {
		s.hReq = cfg.Hist.Get("serve_request_ns")
		s.hDecide = cfg.Hist.Get("serve_decide_ns")
		s.hInflight = cfg.Hist.Get("serve_inflight_depth")
		s.hBcast = cfg.Hist.Get("serve_bcast_batch")
		walBatchHist = cfg.Hist.Get("serve_wal_batch")
	}
	// From here on the group committer is the journal's single writer:
	// every shard loop appends through it, one fsync per batch.
	s.group = wal.NewGroup(log, wal.GroupOptions{BatchHist: walBatchHist})

	mesh := cfg.Mesh
	mesh.Me, mesh.N, mesh.Addrs = cfg.Me, cfg.N, cfg.MeshAddrs
	mesh.Listener = cfg.MeshListener
	mesh.Incarnation = s.incarnation
	mesh.Seed = cfg.Seed
	mesh.Observer = cfg.Observer
	mesh.Hist = cfg.Hist
	node, err := netsub.Start(mesh)
	if err != nil {
		s.group.Close()
		log.Close()
		return nil, fmt.Errorf("serve: join mesh: %w", err)
	}
	s.node = node

	cln := cfg.ClientListener
	if cln == nil {
		cln, err = net.Listen("tcp", cfg.ClientAddr)
		if err != nil {
			node.Close()
			s.group.Close()
			log.Close()
			return nil, fmt.Errorf("serve: bind client listener: %w", err)
		}
	}
	s.cln = cln

	if boots > 0 {
		s.event("serve.recover", map[string]any{
			"incarnation": s.incarnation,
			"decisions":   len(s.recovered),
			"proposals":   s.recoveredProposals,
		})
	}

	s.wg.Add(cfg.Shards + 3)
	for i := 0; i < cfg.Shards; i++ {
		go s.loop(i)
	}
	go s.acceptLoop()
	go s.recvLoop()
	go s.batchLoop()
	return s, nil
}

// shardOf maps an instance id to its owning shard loop.
func (s *Server) shardOf(inst string) int {
	h := fnv.New32a()
	h.Write([]byte(inst))
	return int(h.Sum32() % uint32(s.cfg.Shards))
}

// ClientAddr is the address clients dial.
func (s *Server) ClientAddr() string { return s.cln.Addr().String() }

// MeshAddr is this node's mesh listen address.
func (s *Server) MeshAddr() string { return s.node.Addr() }

// Incarnation is this boot's WAL-derived incarnation number.
func (s *Server) Incarnation() int { return s.incarnation }

// Crashed closes when a CrashAfterAcks hook fires. It never closes on
// Close or Kill.
func (s *Server) Crashed() <-chan struct{} { return s.crashed }

// RecoveredDecisions returns a copy of the decision map as it was
// replayed from the WAL at Start, before any new traffic — what this
// incarnation durably remembers from its predecessors. The chaos
// campaign audits acknowledged decisions against exactly this.
func (s *Server) RecoveredDecisions() map[string]int {
	out := make(map[string]int, len(s.recovered))
	for k, v := range s.recovered {
		out[k] = v
	}
	return out
}

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() Stats {
	return Stats{
		Submits:            s.ctr.submits.Load(),
		IdempotentHits:     s.ctr.idempotentHits.Load(),
		Decisions:          s.ctr.decisions.Load(),
		Adopted:            s.ctr.adopted.Load(),
		AckedDecisions:     s.ctr.ackedDecisions.Load(),
		Overloads:          s.ctr.overloads.Load(),
		Abstains:           s.ctr.abstains.Load(),
		Evictions:          s.ctr.evictions.Load(),
		PeerProposes:       s.ctr.peerProposes.Load(),
		PeerDecides:        s.ctr.peerDecides.Load(),
		PeerSheds:          s.ctr.peerSheds.Load(),
		Queries:            s.ctr.queries.Load(),
		RecoveredDecisions: int64(len(s.recovered)),
		RecoveredProposals: s.recoveredProposals,
		Incarnation:        s.incarnation,
	}
}

// JournalStats exposes the group committer's coalescing counters.
func (s *Server) JournalStats() wal.GroupStats { return s.group.Stats() }

// Mesh exposes the underlying transport node (for its Stats).
func (s *Server) Mesh() *netsub.Node { return s.node }

// Close shuts the server down cleanly: stops serving, waits for the
// goroutines, drains the journal committer, syncs and closes the journal.
func (s *Server) Close() error {
	s.halt()
	s.wg.Wait()
	s.wwg.Wait()
	s.group.Close()
	return s.log.Close()
}

// Kill halts the server abruptly, simulating a process kill: goroutines
// stop, but the journal is abandoned without a sync or clean close —
// whatever the configured SyncMode already made durable is all a restart
// will see.
func (s *Server) Kill() {
	s.halt()
	s.wg.Wait()
	s.wwg.Wait()
	s.group.Close()
}

// halt stops serving: closes done, both listeners and the mesh node,
// waits for connection writers to flush what was already acknowledged
// (an ack handed to a writer is an ack handed to the kernel — a real
// SIGKILL would still deliver it), then closes every client connection.
// Idempotent.
func (s *Server) halt() {
	s.haltOne.Do(func() {
		close(s.done)
		s.cln.Close()
		s.node.Close()
		s.connMu.Lock()
		s.halted = true
		conns := make([]*clientConn, 0, len(s.conns))
		for cc := range s.conns {
			conns = append(conns, cc)
		}
		s.connMu.Unlock()
		// No new writers can register past this point; wait for the
		// existing ones to flush, then cut the connections.
		s.wwg.Wait()
		for _, cc := range conns {
			cc.c.Close()
		}
	})
}

// post delivers an event to the instance's shard loop unless the server
// is halting.
func (s *Server) post(shard int, e any) {
	select {
	case s.ev[shard] <- e:
	case <-s.done:
	}
}

// broadcast hands a peer message to the batcher, which packs it with
// whatever else is in flight into one mesh frame per peer.
func (s *Server) broadcast(payload []byte) {
	select {
	case s.bcast <- payload:
	case <-s.done:
	}
}

// event emits one serve.* observer event.
func (s *Server) event(kind string, fields map[string]any) {
	if s.cfg.Observer != nil {
		s.cfg.Observer.Event(kind, -1, int(s.cfg.Me), fields)
	}
}

// loop is one shard's event loop: it exclusively owns the instances that
// hash to shard i, so the table needs no lock and journal-before-ack
// stays serial per instance.
func (s *Server) loop(i int) {
	defer s.wg.Done()
	t := &s.sh[i]
	for {
		select {
		case <-s.done:
			return
		default:
		}
		select {
		case <-s.done:
			return
		case e := <-s.ev[i]:
			if s.handle(i, t, e) {
				return // CrashAfterAcks fired: the loop dies mid-stride
			}
		}
	}
}

// handle dispatches one event; a true return crashes the loop.
func (s *Server) handle(shard int, t *shardTable, e any) bool {
	switch ev := e.(type) {
	case submitEv:
		return s.onSubmit(shard, t, ev)
	case queryEv:
		s.onQuery(t, ev)
	case peerEv:
		return s.onPeer(shard, t, ev)
	case reqExpireEv:
		s.onReqExpire(t, ev)
	case instExpireEv:
		s.onInstExpire(t, ev)
	}
	return false
}

func (s *Server) onSubmit(shard int, t *shardTable, ev submitEv) bool {
	s.ctr.submits.Add(1)
	id, req := ev.req.Inst, ev.req.Req

	// Idempotency: a decided instance answers every (re)submission from
	// the decision table; nothing can decide twice.
	if val, ok := t.decided[id]; ok {
		s.ctr.idempotentHits.Add(1)
		s.event("serve.dup", nil)
		s.respond(ev.cc, ev.start, Response{
			Req: req, Inst: id, Status: StatusDecided, Val: val, Incarnation: s.incarnation,
		})
		return false
	}

	ins, open := t.inflight[id]
	if !open {
		// Admission control: opening one more instance past the global
		// bound sheds the request instead of queueing it.
		if n := s.inflightN.Load(); n >= int64(s.cfg.MaxInflight) {
			oe := &OverloadError{Inflight: int(n), Max: s.cfg.MaxInflight}
			s.ctr.overloads.Add(1)
			s.event("serve.shed", map[string]any{"inflight": oe.Inflight})
			s.respond(ev.cc, ev.start, Response{
				Req: req, Inst: id, Status: StatusOverload,
				Inflight: oe.Inflight, Max: oe.Max, Incarnation: s.incarnation,
			})
			return false
		}
		ins = s.openInstance(shard, t, id, ev.req.Val)
	} else {
		// A re-submission while in flight re-broadcasts our proposal:
		// cheap, and it re-seeds peers that restarted mid-instance.
		s.broadcast(encodePeerMsg(pmPropose, id, ins.proposal))
	}

	d := s.cfg.RequestTimeout
	if ev.req.TimeoutMS > 0 {
		d = time.Duration(ev.req.TimeoutMS) * time.Millisecond
	}
	w := &waiter{req: req, cc: ev.cc, start: ev.start}
	w.timer = time.AfterFunc(d, func() { s.post(shard, reqExpireEv{inst: id, req: req}) })
	ins.waiters = append(ins.waiters, w)

	return s.maybeDecide(t, ins)
}

// openInstance creates the in-flight entry for id, journaling and
// broadcasting the first-wins proposal. The proposal journal entry is
// what keeps this node's proposal stable across kill-and-restart: a
// resubmission after recovery proposes the same value, so the min-of-view
// decision rule keeps drawing from the same closed set.
func (s *Server) openInstance(shard int, t *shardTable, id string, val int) *instance {
	prop, known := t.proposals[id]
	if !known {
		prop = val
		t.proposals[id] = prop
		s.journal(recProposal, encodeInstVal(id, prop))
	}
	t.gen++
	ins := &instance{
		id:       id,
		proposal: prop,
		got:      map[core.PID]int{s.cfg.Me: prop},
		start:    time.Now(),
		gen:      t.gen,
	}
	t.inflight[id] = ins
	if n := s.inflightN.Add(1); s.hInflight != nil {
		s.hInflight.Record(n)
	}
	gen := ins.gen
	time.AfterFunc(s.cfg.InstanceTTL, func() { s.post(shard, instExpireEv{inst: id, gen: gen}) })
	s.broadcast(encodePeerMsg(pmPropose, id, prop))
	return ins
}

func (s *Server) onQuery(t *shardTable, ev queryEv) {
	s.ctr.queries.Add(1)
	if val, ok := t.decided[ev.req.Inst]; ok {
		s.respond(ev.cc, time.Time{}, Response{
			Req: ev.req.Req, Inst: ev.req.Inst, Status: StatusDecided, Val: val, Incarnation: s.incarnation,
		})
		return
	}
	s.respond(ev.cc, time.Time{}, Response{
		Req: ev.req.Req, Inst: ev.req.Inst, Status: StatusUnknown, Incarnation: s.incarnation,
	})
}

func (s *Server) onPeer(shard int, t *shardTable, ev peerEv) bool {
	switch ev.kind {
	case pmPropose:
		s.ctr.peerProposes.Add(1)
		if val, ok := t.decided[ev.inst]; ok {
			// Help the straggler (a restarted peer re-proposing an old
			// instance) straight to the decision.
			s.node.Send(ev.from, encodePeerMsg(pmDecide, ev.inst, val))
			return false
		}
		ins, open := t.inflight[ev.inst]
		if !open {
			if s.inflightN.Load() >= int64(s.cfg.MaxInflight) {
				// Peer-initiated instances obey the same admission bound;
				// the origin's deadline degrades the loss into abstain.
				s.ctr.peerSheds.Add(1)
				s.event("serve.shed", map[string]any{"inflight": int(s.inflightN.Load()), "peer": true})
				return false
			}
			ins = s.openInstance(shard, t, ev.inst, ev.val)
		}
		if _, seen := ins.got[ev.from]; !seen {
			ins.got[ev.from] = ev.val
		} else {
			// A repeated proposal is a peer that lost our answer (or a
			// restart): resend ours directly rather than re-flooding.
			s.node.Send(ev.from, encodePeerMsg(pmPropose, ev.inst, ins.proposal))
		}
		return s.maybeDecide(t, ins)
	case pmDecide:
		s.ctr.peerDecides.Add(1)
		if _, ok := t.decided[ev.inst]; ok {
			return false
		}
		// Adopting a peer's decision only merges decision sets — the
		// adopted value is itself a min over an n−f view, so the
		// ≤ f+1 distinct-decisions bound is unchanged.
		s.ctr.adopted.Add(1)
		s.event("serve.adopt", nil)
		return s.commitDecision(t, ev.inst, ev.val, false)
	}
	return false
}

func (s *Server) maybeDecide(t *shardTable, ins *instance) bool {
	min, ok := agreement.QuorumMin(ins.got, s.cfg.N-s.cfg.F)
	if !ok {
		return false
	}
	s.ctr.decisions.Add(1)
	s.event("serve.decide", map[string]any{"gathered": len(ins.got)})
	if s.hDecide != nil {
		s.hDecide.Record(time.Since(ins.start).Nanoseconds())
	}
	return s.commitDecision(t, ins.id, min, true)
}

// commitDecision is where the durability contract lives. The honest
// order is: journal the decision (through the group committer — the
// append returns only once the record is durable per the SyncMode), then
// update memory, broadcast, and acknowledge waiters — a crash at any
// point either loses an instance no client was ever told about, or loses
// nothing. If the journal refuses the append (the server is halting),
// the ack is skipped too: journal-before-ack survives shutdown races.
// With AckBeforeJournalBug the acknowledgement happens first, so a crash
// in the window (which CrashAfterAcks plants deterministically) loses a
// decision a client already holds — the violation the chaos campaign
// exists to catch. Returns true when the crash hook fired.
func (s *Server) commitDecision(t *shardTable, id string, val int, local bool) bool {
	ins := t.inflight[id]
	if !s.cfg.AckBeforeJournalBug {
		if s.journal(recDecision, encodeInstVal(id, val)) != nil {
			return false // halting: never acknowledge what wasn't journaled
		}
	}
	t.decided[id] = val
	if _, ok := t.inflight[id]; ok {
		delete(t.inflight, id)
		s.inflightN.Add(-1)
	}
	acked := false
	if ins != nil {
		for _, w := range ins.waiters {
			w.timer.Stop()
			s.respond(w.cc, w.start, Response{
				Req: w.req, Inst: id, Status: StatusDecided, Val: val, Incarnation: s.incarnation,
			})
			acked = true
		}
		ins.waiters = nil
	}
	crash := s.noteAck(acked)
	if s.cfg.AckBeforeJournalBug {
		if crash {
			// The planted bug's fatal window: the client holds the ack,
			// the journal never hears about it.
			s.crash()
			return true
		}
		s.journal(recDecision, encodeInstVal(id, val))
	}
	if local {
		s.broadcast(encodePeerMsg(pmDecide, id, val))
	}
	if crash {
		s.crash()
		return true
	}
	return false
}

// journal appends one record through the group committer, blocking until
// it is durable per the configured SyncMode. An error means the journal
// is closing — the caller must not externalize anything based on the
// record.
func (s *Server) journal(kind uint8, payload []byte) error {
	_, err := s.group.Append(kind, payload)
	return err
}

// noteAck counts decisions acknowledged to at least one client and
// reports whether the CrashAfterAcks hook should fire now.
func (s *Server) noteAck(acked bool) bool {
	if !acked {
		return false
	}
	n := s.acked.Add(1)
	s.ctr.ackedDecisions.Add(1)
	return s.cfg.CrashAfterAcks > 0 && n == int64(s.cfg.CrashAfterAcks)
}

// crash is the abrupt internal halt: mark, stop serving, die mid-stride.
func (s *Server) crash() {
	s.crashOne.Do(func() { close(s.crashed) })
	s.event("serve.crash", map[string]any{"acked": s.acked.Load()})
	s.halt()
}

func (s *Server) onReqExpire(t *shardTable, ev reqExpireEv) {
	ins, ok := t.inflight[ev.inst]
	if !ok {
		return
	}
	for i, w := range ins.waiters {
		if w.req != ev.req {
			continue
		}
		ins.waiters = append(ins.waiters[:i], ins.waiters[i+1:]...)
		s.ctr.abstains.Add(1)
		// Abstain-and-report: the missing n−f−gathered senders are
		// exactly the processes D(i,r) would suspect this round.
		s.event("serve.abstain", map[string]any{"gathered": len(ins.got), "need": s.cfg.N - s.cfg.F})
		s.respond(w.cc, w.start, Response{
			Req: w.req, Inst: ev.inst, Status: StatusAbstain,
			Gathered: len(ins.got), Need: s.cfg.N - s.cfg.F, Incarnation: s.incarnation,
		})
		return
	}
}

func (s *Server) onInstExpire(t *shardTable, ev instExpireEv) {
	ins, ok := t.inflight[ev.inst]
	if !ok || ins.gen != ev.gen {
		return
	}
	for _, w := range ins.waiters {
		w.timer.Stop()
		s.ctr.abstains.Add(1)
		s.respond(w.cc, w.start, Response{
			Req: w.req, Inst: ev.inst, Status: StatusAbstain,
			Gathered: len(ins.got), Need: s.cfg.N - s.cfg.F, Incarnation: s.incarnation,
		})
	}
	ins.waiters = nil
	delete(t.inflight, ev.inst)
	s.inflightN.Add(-1)
	s.ctr.evictions.Add(1)
	s.event("serve.evict_instance", map[string]any{"gathered": len(ins.got)})
}

// respond hands a response to the connection's writer and records the
// request latency.
func (s *Server) respond(cc *clientConn, start time.Time, r Response) {
	if s.hReq != nil && !start.IsZero() {
		s.hReq.Record(time.Since(start).Nanoseconds())
	}
	cc.respond(r)
}

// batchLoop coalesces outbound broadcasts: whatever peer messages the
// shard loops queued while the previous Broadcast was in flight are
// packed into one pmBatch frame — one mesh send per peer per batch. The
// drain is greedy, so at low load every message still departs alone and
// immediately; under load the batch size self-tunes to the backlog.
func (s *Server) batchLoop() {
	defer s.wg.Done()
	msgs := make([][]byte, 0, maxBcastBatch)
	for {
		select {
		case <-s.done:
			return
		case m := <-s.bcast:
			msgs = append(msgs[:0], m)
		drain:
			for len(msgs) < maxBcastBatch {
				select {
				case m2 := <-s.bcast:
					msgs = append(msgs, m2)
				default:
					break drain
				}
			}
			if s.hBcast != nil {
				s.hBcast.Record(int64(len(msgs)))
			}
			if len(msgs) == 1 {
				s.node.Broadcast(msgs[0])
			} else {
				s.node.Broadcast(encodePeerBatch(msgs))
			}
		}
	}
}

// recvLoop pumps mesh messages into the shard loops, unpacking batch
// frames into their constituent messages.
func (s *Server) recvLoop() {
	defer s.wg.Done()
	for {
		env, err := s.node.Recv()
		if err != nil {
			return
		}
		if env.From == s.cfg.Me {
			continue // Broadcast self-delivers; local state is already updated
		}
		b, ok := env.Payload.([]byte)
		if !ok {
			continue
		}
		if len(b) > 0 && b[0] == pmBatch {
			if err := decodePeerBatch(b, func(m []byte) {
				s.handlePeerMsg(env.From, m)
			}); err != nil {
				s.event("serve.bad_peer_msg", map[string]any{"err": err.Error()})
			}
			continue
		}
		s.handlePeerMsg(env.From, b)
	}
}

// handlePeerMsg decodes one peer message and posts it to the owning
// shard loop.
func (s *Server) handlePeerMsg(from core.PID, b []byte) {
	kind, inst, val, err := decodePeerMsg(b)
	if err != nil {
		s.event("serve.bad_peer_msg", map[string]any{"err": err.Error()})
		return
	}
	s.post(s.shardOf(inst), peerEv{from: from, kind: kind, inst: inst, val: val})
}

// clientConn is one accepted client connection: a reader goroutine
// parses requests into events, a writer goroutine drains the bounded
// response queue. A client that stops reading fills the queue and is
// disconnected — the client-side mirror of the mesh's backpressure
// discipline.
type clientConn struct {
	c    net.Conn
	out  chan Response
	dead chan struct{} // closed by the reader on its way out
}

func (cc *clientConn) respond(r Response) {
	select {
	case cc.out <- r:
	default:
		cc.c.Close() // slow client: shed the connection, not the server
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.cln.Accept()
		if err != nil {
			return
		}
		cc := &clientConn{c: c, out: make(chan Response, 64), dead: make(chan struct{})}
		s.connMu.Lock()
		if s.halted {
			s.connMu.Unlock()
			c.Close()
			return
		}
		s.conns[cc] = struct{}{}
		s.wg.Add(1)
		s.wwg.Add(1)
		s.connMu.Unlock()
		go s.readConn(cc)
		go s.writeConn(cc)
	}
}

func (s *Server) readConn(cc *clientConn) {
	defer s.wg.Done()
	defer func() {
		close(cc.dead)
		cc.c.Close()
		s.connMu.Lock()
		delete(s.conns, cc)
		s.connMu.Unlock()
	}()
	dec := newLineDecoder(cc.c)
	for {
		var req Request
		if err := dec.Decode(&req); err != nil {
			return
		}
		switch req.Op {
		case "submit":
			if req.Inst == "" || req.Req == "" {
				cc.respond(Response{Status: StatusError, Err: "submit needs inst and req"})
				continue
			}
			s.post(s.shardOf(req.Inst), submitEv{req: req, cc: cc, start: time.Now()})
		case "query":
			if req.Inst == "" {
				cc.respond(Response{Status: StatusError, Err: "query needs inst"})
				continue
			}
			s.post(s.shardOf(req.Inst), queryEv{req: req, cc: cc})
		default:
			cc.respond(Response{Status: StatusError, Err: "unknown op " + req.Op})
		}
	}
}

func (s *Server) writeConn(cc *clientConn) {
	defer s.wwg.Done()
	enc := newLineEncoder(cc.c)
	// drain flushes everything already queued — on shutdown this is what
	// turns "the loop acknowledged it" into "the client received it".
	drain := func() {
		for {
			select {
			case r := <-cc.out:
				cc.c.SetWriteDeadline(time.Now().Add(5 * time.Second))
				if enc.Encode(r) != nil {
					return
				}
			default:
				return
			}
		}
	}
	for {
		select {
		case <-s.done:
			drain()
			return
		case <-cc.dead:
			drain()
			return
		case r := <-cc.out:
			cc.c.SetWriteDeadline(time.Now().Add(5 * time.Second))
			if enc.Encode(r) != nil {
				cc.c.Close()
				return
			}
		}
	}
}

// ErrClosed reports an operation on a closed client.
var ErrClosed = errors.New("serve: closed")
