// Package serve is agreement-as-a-service: one Server multiplexes many
// concurrent k-set agreement instances over a single netsub peer mesh,
// journals per-instance proposals and decisions through internal/wal so
// an acknowledged decision survives kill-and-restart, and defends itself
// under overload.
//
// The protocol per instance is the quorum form of §2 item 3, one
// communication-closed round: each server adopts the first value it hears
// for an instance (its own client's, or a peer's) as its proposal, sends
// it to every peer, and decides the minimum of the first n−f proposals it
// gathers. Views that contain n−f of the n proposals overlap enough that
// at most f+1 distinct minima exist, so k-agreement holds for k ≥ f+1 —
// the same eq. (3) argument the simulation stack checks, here per
// instance. Every node that hears of an instance proposes, so with n−f
// live nodes every live node fills its own view: a decision is not
// announced. It is sent only in reply, to a peer that proposes for an
// instance already decided here (a straggler, a restarted node, an origin
// resubmitting); adopting it merges decision sets and never widens them.
//
// A shard loop works in turns — drain the event queue, compute, emit
// once. Handlers touch only the shard's table and record their effects in
// it; the flush at the end of the turn appends all of the turn's journal
// records in one wal.Group commit, then makes the turn's decisions
// readable, then releases the client responses, then sends each peer at
// most one mesh frame (a message, or a pmBatch of them). A read — a query,
// a submit for a decided instance — enters no loop: the connection's reader
// answers it from the durable decisions. Robustness comes in three layers:
//
//   - Durability: nothing of a turn leaves, or can be read, before its
//     records are durable per the SyncMode (journal-before-externalize),
//     and a refused append externalizes nothing. A killed and restarted
//     server replays its WAL, re-enters the mesh with the next
//     incarnation, and still holds every decision it ever acknowledged.
//     Config.AckBeforeJournalBug plants the classic inversion — the
//     turn's acks leave before its append — for the chaos campaign to catch.
//   - Admission control: the in-flight instance table is bounded; a
//     submit that would exceed it is shed with a StatusOverload response
//     (in-flight count and bound attached) instead of queued.
//   - Deadlines: every request carries a deadline; when it expires before
//     a quorum view forms the server answers abstain-and-report
//     (StatusAbstain with view progress) instead of hanging, and an
//     undecided instance is evicted after a TTL — both deadlines in one
//     heap and one timer per shard — so the table stays bounded.
//
// Throughput comes from sharding: the instance table is split across
// Config.Shards independent loops, each owning the instances that hash to
// it, so concurrent submits for different instances never serialize on
// one loop. Cross-cutting state is three atomics (global in-flight count
// for admission, acked-decision count for the crash hook, plus the stat
// counters) — no server-wide mutex sits on the decide path. The journal
// is shared through a wal.Group, which coalesces the shards' concurrent
// turn appends into one write+fsync per commit. Batching is greedy
// everywhere: an idle server handles one event per turn and sends every
// message immediately; under load the turn grows with the backlog.
//
// A request that times out, gets shed, or hits a dead server is safely
// retried by Client with seeded-jitter backoff and the same request ID:
// the decision table makes every retry idempotent.
package serve

import (
	"bufio"
	"container/heap"
	"fmt"
	"maps"
	"net"
	"slices"
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
	// StatusOverload. 0 means 1024.
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
	// distributions, records per journal commit and peer messages per
	// mesh frame ("serve_wal_batch", "serve_bcast_batch"), and events
	// and journal wait per turn ("serve_turn_events",
	// "serve_turn_journal_ns").
	Observer obs.Observer
	Hist     *hist.Registry

	// AckBeforeJournalBug plants the durability inversion: a turn's
	// decisions are acknowledged to clients before they are journaled, so
	// a crash in between loses an acknowledged decision. Exists to be
	// caught by the chaos campaign; never set it otherwise.
	AckBeforeJournalBug bool

	// CrashAfterAcks, when >0, halts the server abruptly (no clean
	// shutdown, Crashed() closes) at the end of the turn that
	// acknowledges the CrashAfterAcks-th decision to at least one client
	// — the chaos campaign's deterministic kill point.
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
	// the decisions learned from a peer's reply to our proposal;
	// AckedDecisions the decisions acknowledged to at least one waiting
	// client.
	Decisions      int64
	Adopted        int64
	AckedDecisions int64

	// Overloads counts submits shed by admission control; Abstains
	// counts requests degraded to abstain at their deadline; Evictions
	// counts undecided instances dropped at their TTL.
	Overloads int64
	Abstains  int64
	Evictions int64

	// PeerProposes counts peer proposals handled; PeerSheds those
	// dropped because the instance table was full.
	PeerProposes int64
	PeerSheds    int64

	// Queries counts query requests.
	Queries int64

	// RecoveredDecisions counts the decisions replayed from the journal
	// at start; Incarnation is boots+1.
	RecoveredDecisions int64
	Incarnation        int
}

// counters is the lock-free internal form of Stats: every field is an
// atomic so no shard loop ever takes a server-wide mutex to count.
type counters struct {
	submits, idempotentHits            atomic.Int64
	decisions, adopted, ackedDecisions atomic.Int64
	overloads, abstains, evictions     atomic.Int64
	peerProposes, peerSheds            atomic.Int64
	queries                            atomic.Int64
}

// instance is one in-flight agreement instance.
type instance struct {
	id       string
	proposal int
	got      map[core.PID]int // pid → proposal heard (includes self)
	waiters  []*waiter
	start    time.Time // it expires InstanceTTL later
	settled  bool      // decided or evicted: its deadline entries are dead
}

// waiting returns the index of the first waiter for request req, or -1.
func (ins *instance) waiting(req string) int {
	return slices.IndexFunc(ins.waiters, func(w *waiter) bool { return w.req == req })
}

// waiter is one client request attached to an instance.
type waiter struct {
	req   string
	cc    *clientConn
	start time.Time
}

// event is the closed set of inputs a shard loop consumes.
type (
	submitEv struct {
		req   Request
		cc    *clientConn
		start time.Time
	}
	peerEv struct {
		from core.PID
		kind byte
		inst string
		val  int
	}
)

// shardTable is the state of one shard: the instances that hash to it, and
// the effects of the turn in progress. Only the owning loop touches it,
// except that connection readers read decided, under mu (turn.go).
type shardTable struct {
	inflight  map[string]*instance
	proposals map[string]int // first-wins proposal per instance, journaled
	mu        sync.Mutex
	decided   map[string]int // durable decisions only: flush adds a turn's

	due deadlines // every TTL and request deadline of the shard (turn.go)

	turn // what this turn's handlers want externalized
}

// Server is one agreement-service node. Start it with Start; stop it
// cleanly with Close, or abruptly (simulated kill) with Kill.
type Server struct {
	cfg   Config
	node  *netsub.Node
	cln   net.Listener
	log   *wal.Log
	group *wal.Group

	ev       []chan any // one event queue per shard loop
	done     chan struct{}
	crashed  chan struct{}
	haltOne  sync.Once
	crashOne sync.Once
	wg       sync.WaitGroup
	wwg      sync.WaitGroup // connection writers, drained before conns close

	connMu sync.Mutex
	conns  map[*clientConn]struct{}
	halted bool // set under connMu; accepted conns arriving later are refused

	// Shard state: sh[i] is touched only by loop i, bar sh[i].read.
	sh []shardTable

	// Cross-shard state, all atomic — nothing on the decide path takes a
	// server-wide lock.
	inflightN atomic.Int64 // global admission counter
	acked     atomic.Int64 // decisions acked to ≥1 client (crash hook)
	ctr       counters

	// recovered is the decision map as replayed from the WAL at Start,
	// frozen — the durability audit's ground truth.
	recovered map[string]int

	incarnation int

	hReq         *hist.Histogram
	hDecide      *hist.Histogram
	hInflight    *hist.Histogram
	hBcast       *hist.Histogram
	hTurnEvents  *hist.Histogram
	hTurnJournal *hist.Histogram
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
	js, err := fold(recs)
	if err != nil {
		log.Close()
		return nil, err
	}
	s := &Server{
		cfg:         cfg,
		log:         log,
		ev:          make([]chan any, cfg.Shards),
		done:        make(chan struct{}),
		crashed:     make(chan struct{}),
		conns:       make(map[*clientConn]struct{}),
		sh:          make([]shardTable, cfg.Shards),
		recovered:   js.Decisions,
		incarnation: js.Boots + 1,
	}
	for i := range s.sh {
		s.ev[i] = make(chan any, 1024)
		s.sh[i] = shardTable{
			inflight:  make(map[string]*instance),
			proposals: make(map[string]int),
			decided:   make(map[string]int),
			turn:      turn{fresh: make(map[string]int), out: make([][][]byte, cfg.N)},
		}
	}
	for inst, val := range js.Proposals {
		s.sh[s.shardOf(inst)].proposals[inst] = val
	}
	for inst, val := range js.Decisions {
		s.sh[s.shardOf(inst)].decided[inst] = val
	}
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
		s.hTurnEvents = cfg.Hist.Get("serve_turn_events")
		s.hTurnJournal = cfg.Hist.Get("serve_turn_journal_ns")
		walBatchHist = cfg.Hist.Get("serve_wal_batch")
	}
	// From here on the group committer is the journal's single writer:
	// every shard loop appends its turn's records through it, one fsync
	// per commit.
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

	if js.Boots > 0 {
		s.event("serve.recover", map[string]any{
			"incarnation": s.incarnation,
			"decisions":   len(s.recovered),
			"proposals":   len(js.Proposals),
		})
	}

	s.wg.Add(cfg.Shards + 2)
	for i := 0; i < cfg.Shards; i++ {
		go s.loop(i)
	}
	go s.acceptLoop()
	go s.recvLoop()
	return s, nil
}

// shardOf maps an instance id to its owning shard loop by 32-bit FNV-1a.
func (s *Server) shardOf(inst string) int {
	h := uint32(2166136261)
	for i := 0; i < len(inst); i++ {
		h = (h ^ uint32(inst[i])) * 16777619
	}
	return int(h % uint32(s.cfg.Shards))
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
func (s *Server) RecoveredDecisions() map[string]int { return maps.Clone(s.recovered) }

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
		PeerSheds:          s.ctr.peerSheds.Load(),
		Queries:            s.ctr.queries.Load(),
		RecoveredDecisions: int64(len(s.recovered)),
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
	s.Kill()
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

// event emits one serve.* observer event.
func (s *Server) event(kind string, fields map[string]any) {
	if s.cfg.Observer != nil {
		s.cfg.Observer.Event(kind, -1, int(s.cfg.Me), fields)
	}
}

// handle dispatches one event.
func (s *Server) handle(t *shardTable, e any) {
	switch ev := e.(type) {
	case submitEv:
		s.onSubmit(t, ev)
	case peerEv:
		s.onPeer(t, ev)
	}
}

func (s *Server) onSubmit(t *shardTable, ev submitEv) {
	s.ctr.submits.Add(1)
	id, req := ev.req.Inst, ev.req.Req

	// Idempotency: a decided instance answers every (re)submission that
	// got past the connection's reader; nothing can decide twice.
	if val, ok := t.lookup(id); ok {
		t.respond(ev.cc, ev.start, s.dup(req, id, val))
		return
	}

	ins, open := t.inflight[id]
	if !open {
		// Admission control: opening one more instance past the global
		// bound sheds the request instead of queueing it.
		if n := s.inflightN.Load(); n >= int64(s.cfg.MaxInflight) {
			s.ctr.overloads.Add(1)
			if s.cfg.Observer != nil {
				s.event("serve.shed", map[string]any{"inflight": int(n)})
			}
			t.respond(ev.cc, ev.start, Response{
				Req: req, Inst: id, Status: StatusOverload,
				Inflight: int(n), Max: s.cfg.MaxInflight, Incarnation: s.incarnation,
			})
			return
		}
		ins = s.openInstance(t, id, ev.req.Val)
	} else {
		// A re-submission while in flight re-sends our proposal: cheap,
		// it re-seeds peers that restarted mid-instance, and a peer that
		// has decided meanwhile answers it with the decision.
		s.toPeers(t, encodePeerMsg(pmPropose, id, ins.proposal))
	}

	d := s.cfg.RequestTimeout
	if ev.req.TimeoutMS > 0 {
		d = time.Duration(ev.req.TimeoutMS) * time.Millisecond
	}
	ins.waiters = append(ins.waiters, &waiter{req: req, cc: ev.cc, start: ev.start})
	t.schedule(deadline{at: ev.start.Add(d), ins: ins, req: req})

	s.maybeDecide(t, ins)
}

// toPeers records msg for every other node.
func (s *Server) toPeers(t *shardTable, msg []byte) {
	for to := range t.out {
		if core.PID(to) != s.cfg.Me {
			t.send(core.PID(to), msg)
		}
	}
}

// openInstance creates the in-flight entry for id, journaling the
// first-wins proposal and sending it to every peer. The proposal journal
// entry is what keeps this node's proposal stable across
// kill-and-restart: a resubmission after recovery proposes the same
// value, so the min-of-view decision rule keeps drawing from the same
// closed set.
func (s *Server) openInstance(t *shardTable, id string, val int) *instance {
	prop, known := t.proposals[id]
	if !known {
		prop = val
		t.proposals[id] = prop
		t.journal(recProposal, id, prop)
	}
	ins := &instance{
		id:       id,
		proposal: prop,
		got:      map[core.PID]int{s.cfg.Me: prop},
		start:    time.Now(),
	}
	t.inflight[id] = ins
	t.schedule(deadline{at: ins.start.Add(s.cfg.InstanceTTL), ins: ins})
	if n := s.inflightN.Add(1); s.hInflight != nil {
		s.hInflight.Record(n)
	}
	s.toPeers(t, encodePeerMsg(pmPropose, id, prop))
	return ins
}

// settle removes ins from the in-flight table: decided or evicted.
func (s *Server) settle(t *shardTable, ins *instance) {
	delete(t.inflight, ins.id)
	ins.settled = true
	s.inflightN.Add(-1)
}

// dup counts and builds the answer to a submit for a decided instance.
func (s *Server) dup(req, inst string, val int) Response {
	s.ctr.idempotentHits.Add(1)
	s.event("serve.dup", nil)
	return Response{Req: req, Inst: inst, Status: StatusDecided, Val: val, Incarnation: s.incarnation}
}

func (s *Server) onPeer(t *shardTable, ev peerEv) {
	switch ev.kind {
	case pmPropose:
		s.ctr.peerProposes.Add(1)
		if val, ok := t.lookup(ev.inst); ok {
			// The one place a decision is announced: to a peer still
			// proposing for an instance this node has decided — a
			// straggler, a restarted peer, or one resubmitting because
			// its own view never filled.
			t.send(ev.from, encodePeerMsg(pmDecide, ev.inst, val))
			return
		}
		ins, open := t.inflight[ev.inst]
		if !open {
			if s.inflightN.Load() >= int64(s.cfg.MaxInflight) {
				// Peer-initiated instances obey the same admission bound;
				// the origin's deadline degrades the loss into abstain.
				s.ctr.peerSheds.Add(1)
				if s.cfg.Observer != nil {
					s.event("serve.shed", map[string]any{"inflight": int(s.inflightN.Load()), "peer": true})
				}
				return
			}
			ins = s.openInstance(t, ev.inst, ev.val)
		}
		if _, seen := ins.got[ev.from]; !seen {
			ins.got[ev.from] = ev.val
		} else {
			// A repeated proposal is a peer that lost our answer (or a
			// restart): resend ours directly rather than re-flooding.
			t.send(ev.from, encodePeerMsg(pmPropose, ev.inst, ins.proposal))
		}
		s.maybeDecide(t, ins)
	case pmDecide:
		if _, ok := t.lookup(ev.inst); ok {
			return
		}
		// Adopting a peer's decision only merges decision sets — the
		// adopted value is itself a min over an n−f view, so the
		// ≤ f+1 distinct-decisions bound is unchanged.
		s.ctr.adopted.Add(1)
		s.event("serve.adopt", nil)
		s.commitDecision(t, ev.inst, ev.val)
	}
}

func (s *Server) maybeDecide(t *shardTable, ins *instance) {
	min, ok := agreement.QuorumMin(ins.got, s.cfg.N-s.cfg.F)
	if !ok {
		return
	}
	s.ctr.decisions.Add(1)
	if s.cfg.Observer != nil {
		s.event("serve.decide", map[string]any{"gathered": len(ins.got)})
	}
	if s.hDecide != nil {
		s.hDecide.Record(time.Since(ins.start).Nanoseconds())
	}
	s.commitDecision(t, ins.id, min)
}

// commitDecision records a decision in the turn: the journal record, the
// decision, a response to every waiter. Nothing is announced to peers —
// each decides on its own n−f view, and one that cannot is answered when
// it proposes (onPeer). flush makes the record durable before the
// decision can be read off the loop or any of the responses leave.
func (s *Server) commitDecision(t *shardTable, id string, val int) {
	t.journal(recDecision, id, val)
	t.fresh[id] = val
	ins := t.inflight[id]
	if ins == nil {
		return
	}
	s.settle(t, ins)
	for _, w := range ins.waiters {
		t.respond(w.cc, w.start, Response{
			Req: w.req, Inst: id, Status: StatusDecided, Val: val, Incarnation: s.incarnation,
		})
	}
	if len(ins.waiters) > 0 {
		t.acked++
	}
	ins.waiters = nil
}

// crash is the abrupt internal halt: mark, stop serving, die mid-stride.
func (s *Server) crash() {
	s.crashOne.Do(func() { close(s.crashed) })
	s.event("serve.crash", map[string]any{"acked": s.acked.Load()})
	s.halt()
}

// abstain answers one waiter abstain-and-report: the missing
// n−f−gathered senders are exactly the processes D(i,r) would suspect
// this round.
func (s *Server) abstain(t *shardTable, ins *instance, w *waiter) {
	s.ctr.abstains.Add(1)
	t.respond(w.cc, w.start, Response{
		Req: w.req, Inst: ins.id, Status: StatusAbstain,
		Gathered: len(ins.got), Need: s.cfg.N - s.cfg.F, Incarnation: s.incarnation,
	})
}

// expire serves the shard's deadlines due by now, earliest first. A
// request's deadline abstains the first waiter still attached under its
// ID; an instance's TTL evicts the instance, abstaining every waiter still
// attached. Entries that died meanwhile are dropped.
func (s *Server) expire(t *shardTable, now time.Time) {
	for len(t.due) > 0 && !t.due[0].at.After(now) {
		d := heap.Pop(&t.due).(deadline)
		ins, i := d.ins, d.ins.waiting(d.req)
		switch {
		case ins.settled: // dead: decided or evicted meanwhile
		case d.req == "":
			for _, w := range ins.waiters {
				s.abstain(t, ins, w)
			}
			ins.waiters = nil
			s.settle(t, ins)
			s.ctr.evictions.Add(1)
			if s.cfg.Observer != nil {
				s.event("serve.evict_instance", map[string]any{"gathered": len(ins.got)})
			}
		case i >= 0:
			w := ins.waiters[i]
			ins.waiters = append(ins.waiters[:i], ins.waiters[i+1:]...)
			if s.cfg.Observer != nil {
				s.event("serve.abstain", map[string]any{"gathered": len(ins.got), "need": s.cfg.N - s.cfg.F})
			}
			s.abstain(t, ins, w)
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
// parses requests, answers reads and malformed lines itself and posts the
// other submits to their shard loops; a writer goroutine drains the
// bounded queue of the loops' responses. Each writes whole lines, so
// responses may overtake each other but never interleave. A client that
// stops reading blocks its reader and fills the queue, and is
// disconnected — the mesh's backpressure discipline, client side.
type clientConn struct {
	c    net.Conn
	out  chan Response
	dead chan struct{} // closed by the reader on its way out
}

// write sends r as one line, coded into the caller's reused buffer,
// within the write deadline.
func (cc *clientConn) write(buf *[]byte, r *Response) error {
	*buf = appendResponse((*buf)[:0], r)
	cc.c.SetWriteDeadline(time.Now().Add(5 * time.Second))
	_, err := cc.c.Write(*buf)
	return err
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
	in := newLineScanner(cc.c)
	var out []byte
	for in.Scan() {
		var req Request
		if parseRequest(in.Bytes(), &req) != nil {
			return
		}
		resp := Response{Status: StatusError}
		start, shard := time.Now(), s.shardOf(req.Inst)
		val, ok := s.sh[shard].read(req.Inst)
		switch {
		case req.Op == "submit" && (req.Inst == "" || req.Req == ""):
			resp.Err = "submit needs inst and req"
		case req.Op == "submit" && !ok:
			s.post(shard, submitEv{req: req, cc: cc, start: start})
			continue
		case req.Op == "submit":
			s.ctr.submits.Add(1)
			resp = s.dup(req.Req, req.Inst, val)
			if s.hReq != nil {
				s.hReq.Record(time.Since(start).Nanoseconds())
			}
		case req.Op == "query" && req.Inst == "":
			resp.Err = "query needs inst"
		case req.Op == "query":
			s.ctr.queries.Add(1)
			resp = Response{Req: req.Req, Inst: req.Inst, Status: StatusUnknown, Incarnation: s.incarnation}
			if ok {
				resp.Status, resp.Val = StatusDecided, val
			}
		default:
			resp.Err = "unknown op " + req.Op
		}
		if cc.write(&out, &resp) != nil {
			return
		}
	}
	if in.Err() == bufio.ErrTooLong {
		cc.write(&out, &Response{Status: StatusError, Err: "line too long"})
	}
}

// writeConn writes the loops' responses; on shutdown it first writes what
// is queued — "the loop acknowledged it" becomes "the client received it".
func (s *Server) writeConn(cc *clientConn) {
	defer s.wwg.Done()
	var buf []byte
	for stopping := false; ; {
		var r Response
		select {
		case r = <-cc.out:
		default:
			if stopping {
				return
			}
			select {
			case <-s.done:
				stopping = true
				continue
			case <-cc.dead:
				stopping = true
				continue
			case r = <-cc.out:
			}
		}
		if cc.write(&buf, &r) != nil {
			cc.c.Close()
			return
		}
	}
}
