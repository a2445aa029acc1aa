// Package serve is agreement-as-a-service: one Server multiplexes many
// concurrent k-set agreement instances over a single netsub peer mesh,
// journals per-instance proposals and decisions through internal/wal so
// an acknowledged decision survives kill-and-restart, and defends itself
// under overload.
//
// The protocol per instance is the quorum form of §2 item 3, one
// communication-closed round: each server adopts the first value it hears
// for an instance (its own client's, or a peer's) as its proposal, sends
// it to the peers where it can still count, and decides the minimum of
// the first n−f proposals it gathers. Views that contain n−f of the n
// proposals overlap enough that at most f+1 distinct minima exist, so
// k-agreement holds for k ≥ f+1 — the same eq. (3) argument the
// simulation stack checks, here per instance. The node a client
// contacts asks only the n−f−1 peers whose answers fill its view, and
// hedges; a decision is sent only in reply, to a proposer that asks.
// DESIGN §15 "Instance multiplexing" spells out who proposes to whom and
// the hedge.
//
// The loop works in turns — drain the event queue, compute, emit once.
// Handlers touch only the instance table and record their effects in the
// turn; the flush at the end of the turn appends all of the turn's journal
// records in one wal.Group commit, then makes the turn's decisions
// readable, then releases the client responses, then sends each peer at
// most one mesh frame, its messages back to back. A read — a query,
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
//     heap under one timer — so the table stays bounded.
//
// One event loop serves every instance. An instance is one
// communication-closed round, so instances commute and one loop can
// interleave them all: it owns the instance table, admission is the
// table's size, and no lock sits on the decide path — only the decided
// table, which connection readers read, has a mutex. Batching is greedy
// everywhere: an idle server handles one event per turn and sends every
// message immediately; under load the turn grows with the backlog, and
// the submits of one turn share its journal commit and its frame to each
// peer.
//
// A request that times out, gets shed, or hits a dead server is safely
// retried by Client with seeded-jitter backoff and the same request ID:
// the decision table makes every retry idempotent.
package serve

import (
	"bufio"
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
	// Me is this server's pid; F the crash bound. The decision rule
	// gathers n−f proposals, so decisions stay within the k = f+1 bound
	// of eq. (3).
	Me core.PID
	F  int

	// MeshAddrs maps each pid to its mesh listen address; the mesh size n
	// is its length. MeshListener, when non-nil, is the pre-bound mesh
	// listener (else MeshAddrs[Me] is bound).
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

	// MaxInflight bounds the undecided-instance table; a submit that would
	// open an instance beyond it is shed with StatusOverload. 0 means 1024.
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
	// policy). Me/N/Addrs/Listener/Incarnation/Seed/Observer/Hist/Deliver
	// are overwritten from this Config.
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

// n is the mesh size.
func (c *Config) n() int { return len(c.MeshAddrs) }

func (c *Config) fill() error {
	if c.n() == 0 {
		return fmt.Errorf("serve: MeshAddrs is required")
	}
	if c.Me < 0 || int(c.Me) >= c.n() {
		return fmt.Errorf("serve: pid %d outside mesh of %d", c.Me, c.n())
	}
	if c.F < 0 || c.F >= c.n() {
		return fmt.Errorf("serve: need 0 <= f < n, got f=%d n=%d", c.F, c.n())
	}
	if c.WALDir == "" {
		return fmt.Errorf("serve: WALDir is required")
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

	// Hedges counts fresh instances still undecided at their hedge, and
	// so proposed again to every peer.
	Hedges int64

	// RecoveredDecisions counts the decisions replayed from the journal
	// at start; Incarnation is boots+1.
	RecoveredDecisions int64
	Incarnation        int
}

// counters is the lock-free internal form of Stats: every field is an
// atomic, since connection readers count too and Stats reads them all.
type counters struct {
	submits, idempotentHits            atomic.Int64
	decisions, adopted, ackedDecisions atomic.Int64
	overloads, abstains, evictions     atomic.Int64
	peerProposes, peerSheds            atomic.Int64
	queries, hedges                    atomic.Int64
}

// instance is one in-flight agreement instance: one round's state, held
// in a record the loop recycles. A decided or evicted instance frees its
// record onto the free list, and the next instance the loop opens takes it
// over, view and waiter buffers included.
type instance struct {
	id       string
	proposal int
	view     agreement.Row // the proposals heard, by pid (includes self)
	waiters  []waiter
	start    time.Time // it expires InstanceTTL later
	// gen counts the record's tenants: freeing the record starts the next
	// tenancy, and a deadline scheduled under an older one is dead.
	gen uint32
}

// waiting returns the index of the first waiter for request req, or -1.
func (ins *instance) waiting(req string) int {
	return slices.IndexFunc(ins.waiters, func(w waiter) bool { return w.req == req })
}

// waiter is one client request attached to an instance.
type waiter struct {
	req   string
	cc    *clientConn
	start time.Time
}

// event is one input of the loop, queued by value: a client's submit
// (kind 0) or a peer message.
type event struct {
	kind byte     // the peer message's kind; 0: a submit
	from core.PID // the peer message's sender
	inst string
	val  int

	req     string      // the submit's request ID
	timeout int         // the submit's own deadline in ms; 0: RequestTimeout
	cc      *clientConn // the submit's connection
	start   time.Time   // when the submit arrived
}

// Server is one agreement-service node: one event loop over one instance
// table. Start it with Start; stop it cleanly with Close, or abruptly
// (simulated kill) with Kill.
type Server struct {
	cfg   Config
	node  *netsub.Node
	cln   net.Listener
	log   *wal.Log
	group *wal.Group // the journal's only way in once Start is done

	ev       chan event // the loop's queue
	done     chan struct{}
	crashed  chan struct{}
	haltOne  sync.Once
	crashOne sync.Once
	wg       sync.WaitGroup
	wwg      sync.WaitGroup // connection writers: each flushes, then closes its conn

	connMu sync.Mutex
	halted bool // set under connMu; accepted conns arriving later are refused

	// The instance table and the turn in progress: only the loop touches
	// them, except that connection readers and RecoveredDecisions read
	// decided, under mu (turn.go).
	inflight  map[string]*instance // its size is what admission bounds
	free      []*instance          // settled instances' records, for the next to open
	proposals map[string]int       // first-wins proposal per undecided instance, journaled
	mu        sync.Mutex
	decided   map[string]int // durable decisions only: flush adds a turn's
	due       deadlines      // every TTL, hedge and request deadline (turn.go)
	heard     core.Set       // ask's scratch: the peers the mesh hears
	turn                     // what this turn's handlers want externalized

	ctr counters

	recovered int // decisions replayed from the WAL at Start

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
	s := newServer(cfg, js)
	s.log = log
	if _, err := log.Append(recBoot, encodeBoot(s.incarnation)); err != nil {
		log.Close()
		return nil, err
	}

	// From here on the loop appends each turn's records through the group
	// and writes them itself, one fsync per commit.
	s.group = wal.NewGroup(log, wal.GroupOptions{BatchHist: cfg.Hist.Get("serve_wal_batch")})

	mesh := cfg.Mesh
	mesh.Me, mesh.N, mesh.Addrs = cfg.Me, cfg.n(), cfg.MeshAddrs
	mesh.Listener = cfg.MeshListener
	mesh.Incarnation = s.incarnation
	mesh.Seed = cfg.Seed
	mesh.Observer = cfg.Observer
	mesh.Hist = cfg.Hist
	mesh.Deliver = s.deliver
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
			close(s.done) // a mesh reader may be posting to a loop that never ran
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
			"decisions":   s.recovered,
			"proposals":   len(js.Proposals),
		})
	}

	s.wg.Add(2)
	go s.loop()
	go s.acceptLoop()
	return s, nil
}

// newServer builds the server's state from a filled cfg and the journal's
// content, whose Decisions it takes over as its decided table: the
// instance table and the loop's queue, no loop, mesh or journal yet.
func newServer(cfg Config, js *JournalState) *Server {
	s := &Server{
		cfg:         cfg,
		ev:          make(chan event, 1024), // a backlog for the next turns; a full queue holds its posters back
		done:        make(chan struct{}),
		crashed:     make(chan struct{}),
		inflight:    make(map[string]*instance),
		proposals:   make(map[string]int),
		decided:     js.Decisions,
		heard:       core.NewSet(cfg.n()),
		turn:        turn{fresh: make(map[string]int), out: make([]outbox, cfg.n())},
		recovered:   len(js.Decisions),
		incarnation: js.Boots + 1,

		hReq:         cfg.Hist.Get("serve_request_ns"),
		hDecide:      cfg.Hist.Get("serve_decide_ns"),
		hInflight:    cfg.Hist.Get("serve_inflight_depth"),
		hBcast:       cfg.Hist.Get("serve_bcast_batch"),
		hTurnEvents:  cfg.Hist.Get("serve_turn_events"),
		hTurnJournal: cfg.Hist.Get("serve_turn_journal_ns"),
	}
	for inst, val := range js.Proposals {
		if _, done := js.Decisions[inst]; !done {
			s.proposals[inst] = val
		}
	}
	return s
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

// RecoveredDecisions returns a copy of the durable decisions this server
// holds: right after Start, what it replayed from the WAL; later, those
// and every decision journaled since. bench/svc.go's recovery audit
// checks acknowledged decisions against it.
func (s *Server) RecoveredDecisions() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return maps.Clone(s.decided)
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
		PeerSheds:          s.ctr.peerSheds.Load(),
		Queries:            s.ctr.queries.Load(),
		Hedges:             s.ctr.hedges.Load(),
		RecoveredDecisions: int64(s.recovered),
		Incarnation:        s.incarnation,
	}
}

// JournalStats exposes the journal's counters: records appended and
// commits, one per turn that had records.
func (s *Server) JournalStats() wal.GroupStats { return s.group.Stats() }

// Mesh exposes the underlying transport node (for its Stats).
func (s *Server) Mesh() *netsub.Node { return s.node }

// Close shuts the server down cleanly: stops serving, waits for the
// goroutines, closes the journal group, syncs and closes the journal.
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

// halt stops serving: closes done, both listeners and the mesh node, and
// waits for the connection writers, each of which flushes what was
// already acknowledged (an ack handed to a lane is an ack handed to the
// kernel — a real SIGKILL would still deliver it) and then closes its
// connection. Idempotent.
func (s *Server) halt() {
	s.haltOne.Do(func() {
		close(s.done)
		s.cln.Close()
		s.node.Close()
		s.connMu.Lock()
		s.halted = true
		s.connMu.Unlock()
		// No new writers can register past this point.
		s.wwg.Wait()
	})
}

// post delivers an event to the loop unless the server is halting.
func (s *Server) post(e event) {
	select {
	case s.ev <- e:
	case <-s.done:
	}
}

// event emits one serve.* observer event.
func (s *Server) event(kind string, fields map[string]any) {
	if s.cfg.Observer != nil {
		s.cfg.Observer.Observe(obs.Event{Kind: kind, R: -1, P: int(s.cfg.Me), Fields: fields})
	}
}

// handle dispatches one event.
func (s *Server) handle(ev event) {
	if ev.kind == 0 {
		s.onSubmit(ev)
	} else {
		s.onPeer(ev)
	}
}

func (s *Server) onSubmit(ev event) {
	s.ctr.submits.Add(1)
	id, req := ev.inst, ev.req

	// Idempotency: a decided instance answers every (re)submission that
	// got past the connection's reader; nothing can decide twice.
	if val, ok := s.lookup(id); ok {
		s.respond(ev.cc, ev.start, s.dup(req, id, val))
		return
	}

	ins, open := s.inflight[id]
	if !open {
		// Admission control: opening one more instance past the bound
		// sheds the request instead of queueing it.
		if !s.admit() {
			s.ctr.overloads.Add(1)
			if s.cfg.Observer != nil {
				s.event("serve.shed", map[string]any{"inflight": len(s.inflight)})
			}
			s.respond(ev.cc, ev.start, Response{
				Req: req, Inst: id, Status: StatusOverload,
				Inflight: len(s.inflight), Max: s.cfg.MaxInflight, Incarnation: s.incarnation,
			})
			return
		}
		ins = s.openInstance(id, ev.val)
	}

	d := s.cfg.RequestTimeout
	if ev.timeout > 0 {
		d = time.Duration(ev.timeout) * time.Millisecond
	}
	ins.waiters = append(ins.waiters, waiter{req: req, cc: ev.cc, start: ev.start})
	s.schedule(deadline{at: ev.start.Add(d), ins: ins, gen: ins.gen, req: req})

	// Proposed once the instance could decide. A fresh instance still
	// undecided asks only the quorum it needs, and hedges. A re-submission
	// while in flight re-sends our proposal to every peer, as the hedge
	// does: cheap, it re-seeds peers that restarted mid-instance, and a
	// peer that has decided meanwhile answers it with the decision.
	prop := ins.proposal
	if s.maybeDecide(ins) || open {
		s.proposeAll(id, prop, nobody)
		return
	}
	s.ask(ins)
	s.schedule(deadline{at: ev.start.Add(s.cfg.RequestTimeout / hedgeFraction), ins: ins, gen: ins.gen, hedge: true})
}

// hedgeFraction places a fresh instance's hedge at this fraction of
// Config.RequestTimeout, whatever deadline the request names: 250 ms of
// the default 2 s.
const hedgeFraction = 8

// ask sends a fresh, undecided instance's first proposal: pmPropose to
// the first n−f−1 peers in pid order after this node that the mesh hears,
// whose answers fill its view, topped up from the unheard peers in the same
// order when too few are heard; pmProposeQuiet to the others. It reads each
// peer's liveness at most once, and none past the n−f−1 heard peers it
// needs.
func (s *Server) ask(ins *instance) {
	n, me := s.cfg.n(), int(s.cfg.Me)
	need := n - s.cfg.F - 1
	s.heard.Clear()
	for i, found := 1, 0; i < n && found < need; i++ {
		if p := core.PID((me + i) % n); s.node.Hears(p) {
			s.heard.Add(p)
			found++
		}
	}
	fill := need - s.heard.Count()
	for i := 1; i < n; i++ {
		p, kind := core.PID((me+i)%n), pmProposeQuiet
		if s.heard.Has(p) {
			kind = pmPropose
		} else if fill > 0 {
			kind, fill = pmPropose, fill-1
		}
		s.send(p, kind, ins.id, ins.proposal)
	}
}

// hedge fires for a fresh instance still undecided: the proposal goes to
// every peer again, asking each, as an in-flight resubmission does — which
// also resends one a full send queue shed.
func (s *Server) hedge(ins *instance) {
	s.ctr.hedges.Add(1)
	if s.cfg.Observer != nil {
		s.event("serve.hedge", map[string]any{"unheard": ins.view.Heard.Complement().Members()})
	}
	s.proposeAll(ins.id, ins.proposal, nobody)
}

// admit reports whether one more instance fits under MaxInflight, and
// records the depth it would bring the table to.
func (s *Server) admit() bool {
	n := len(s.inflight) + 1
	if n > s.cfg.MaxInflight {
		return false
	}
	s.hInflight.Record(int64(n))
	return true
}

// nobody is a proposeAll skip that skips no peer.
const nobody core.PID = -1

// proposal is the kind this node's proposal for instance id goes as.
// Once the instance is decided here, in this turn or earlier, it is
// pmProposeQuiet: the node has nothing left to learn, so no peer answers
// it. It takes the id, not the instance: a decided instance's record is
// already free.
func (s *Server) proposal(id string) byte {
	if _, done := s.lookup(id); done {
		return pmProposeQuiet
	}
	return pmPropose
}

// proposeAll records this node's proposal prop for instance id for every
// other node but skip.
func (s *Server) proposeAll(id string, prop int, skip core.PID) {
	kind := s.proposal(id)
	for p := range s.out {
		if to := core.PID(p); to != s.cfg.Me && to != skip {
			s.send(to, kind, id, prop)
		}
	}
}

// openInstance creates the in-flight entry for id, which admit let in,
// journaling the first-wins proposal; its caller proposes it
// once the instance has had its chance to decide. The proposal journal
// entry is what keeps this node's proposal stable across kill-and-restart:
// a resubmission after recovery proposes the same value, so the
// min-of-view decision rule keeps drawing from the same closed set.
func (s *Server) openInstance(id string, val int) *instance {
	prop, known := s.proposals[id]
	if !known {
		prop = val
		s.proposals[id] = prop
		s.journal(recProposal, id, prop)
	}
	var ins *instance
	if k := len(s.free); k > 0 {
		ins, s.free = s.free[k-1], s.free[:k-1]
	} else {
		ins = &instance{view: agreement.Row{Heard: core.NewSet(s.cfg.n()), Vals: make([]int, s.cfg.n())}}
	}
	ins.id, ins.proposal, ins.start = id, prop, time.Now()
	ins.view.Heard.Add(s.cfg.Me)
	ins.view.Vals[s.cfg.Me] = prop
	s.inflight[id] = ins
	s.schedule(deadline{at: ins.start.Add(s.cfg.InstanceTTL), ins: ins, gen: ins.gen})
	return ins
}

// settle removes ins from the in-flight table, decided or evicted, and
// frees its record: its deadlines die, and the next instance the loop
// opens may take it over. The caller is done with the waiters.
func (s *Server) settle(ins *instance) {
	delete(s.inflight, ins.id)
	ins.gen++
	ins.id = ""
	ins.view.Heard.Clear()
	clear(ins.waiters)
	ins.waiters = ins.waiters[:0]
	s.free = append(s.free, ins)
}

// dup counts and builds the answer to a submit for a decided instance.
func (s *Server) dup(req, inst string, val int) Response {
	s.ctr.idempotentHits.Add(1)
	s.event("serve.dup", nil)
	return Response{Req: req, Inst: inst, Status: StatusDecided, Val: val, Incarnation: s.incarnation}
}

func (s *Server) onPeer(ev event) {
	switch ev.kind {
	case pmPropose, pmProposeQuiet:
		s.ctr.peerProposes.Add(1)
		asks := ev.kind == pmPropose // a quiet proposer is never answered
		if val, ok := s.lookup(ev.inst); ok {
			// The one place a decision is announced: to a peer still
			// undecided and proposing for an instance this node has
			// decided — a straggler, a restarted peer, or one resubmitting
			// because its own view never filled.
			if asks {
				s.send(ev.from, pmDecide, ev.inst, val)
			}
			return
		}
		ins, open := s.inflight[ev.inst]
		if !open {
			if !s.admit() {
				// Peer-initiated instances obey the same admission bound;
				// the origin's deadline degrades the loss into abstain.
				s.ctr.peerSheds.Add(1)
				if s.cfg.Observer != nil {
					s.event("serve.shed", map[string]any{"inflight": len(s.inflight), "peer": true})
				}
				return
			}
			ins = s.openInstance(ev.inst, ev.val)
		}
		seen := ins.view.Heard.Has(ev.from)
		if !seen {
			ins.view.Heard.Add(ev.from)
			ins.view.Vals[ev.from] = ev.val
		}
		prop := ins.proposal
		decided := s.maybeDecide(ins)
		switch {
		case !open && decided:
			// Closed in the turn it opened: our proposal can still count
			// only at the proposer, and only if it asked. A
			// sibling peer has heard the proposer too, or learns the
			// instance when a client asks it (a plain pmPropose answered
			// with pmDecide), as a restarted node does.
			if asks {
				s.send(ev.from, s.proposal(ev.inst), ev.inst, prop)
			}
		case !open:
			skip := nobody
			if !asks {
				skip = ev.from // it wants no answer: it has decided, or asked others
			}
			s.proposeAll(ev.inst, prop, skip)
		case seen && asks:
			// A repeated proposal is a peer that lost our answer (a
			// hedge, a restart): resend ours directly, not to all.
			s.send(ev.from, s.proposal(ev.inst), ev.inst, prop)
		}
	case pmDecide:
		if _, ok := s.lookup(ev.inst); ok {
			return
		}
		// Adopting a peer's decision only merges decision sets — the
		// adopted value is itself a min over an n−f view, so the
		// ≤ f+1 distinct-decisions bound is unchanged.
		s.ctr.adopted.Add(1)
		s.event("serve.adopt", nil)
		s.commitDecision(ev.inst, ev.val)
	}
}

// maybeDecide decides ins once its view holds n−f proposals, and reports
// whether it did.
func (s *Server) maybeDecide(ins *instance) bool {
	min, ok := agreement.QuorumMin(ins.view, s.cfg.n()-s.cfg.F)
	if !ok {
		return false
	}
	s.ctr.decisions.Add(1)
	if s.cfg.Observer != nil {
		s.event("serve.decide", map[string]any{"gathered": ins.view.Heard.Count()})
	}
	s.hDecide.Since(ins.start)
	s.commitDecision(ins.id, min)
	return true
}

// commitDecision records a decision in the turn: the journal record, the
// decision, a response to every waiter. Nothing is announced to peers —
// each decides on its own n−f view, and one that cannot is answered when
// it proposes (onPeer). flush makes the record durable before the
// decision can be read off the loop or any of the responses leave. The
// instance's proposal goes: lookup answers a decided instance before
// openInstance could read it again. So does its record.
func (s *Server) commitDecision(id string, val int) {
	s.journal(recDecision, id, val)
	s.fresh[id] = val
	delete(s.proposals, id)
	ins := s.inflight[id]
	if ins == nil {
		return
	}
	for _, w := range ins.waiters {
		s.respond(w.cc, w.start, Response{
			Req: w.req, Inst: id, Status: StatusDecided, Val: val, Incarnation: s.incarnation,
		})
	}
	if len(ins.waiters) > 0 {
		s.acked++
	}
	s.settle(ins)
}

// crash is the abrupt internal halt: mark, stop serving, die mid-stride.
func (s *Server) crash() {
	s.crashOne.Do(func() { close(s.crashed) })
	s.event("serve.crash", map[string]any{"acked": s.ctr.ackedDecisions.Load()})
	s.halt()
}

// abstain answers one waiter abstain-and-report: the missing
// n−f−gathered senders are the processes this round's D(i,r) would hold.
func (s *Server) abstain(ins *instance, w waiter) {
	s.ctr.abstains.Add(1)
	s.respond(w.cc, w.start, Response{
		Req: w.req, Inst: ins.id, Status: StatusAbstain,
		Gathered: ins.view.Heard.Count(), Need: s.cfg.n() - s.cfg.F, Incarnation: s.incarnation,
	})
}

// expire serves the deadlines due by now, earliest first, and at most
// maxTurnEvents live ones: a hedge adds a message for every peer, so a
// turn that served a burst of them whole could build a frame past
// netsub.MaxFramePayload, which the mesh refuses whole. The loop takes the
// rest in its next turns. A request's deadline abstains the first waiter
// still attached under its ID; an instance's TTL evicts the instance,
// abstaining every waiter still attached. Entries that died meanwhile are
// dropped uncounted: their instance's record has been freed since,
// whoever holds it now, or their waiter has gone.
func (s *Server) expire(now time.Time) {
	for live := 0; live < maxTurnEvents && len(s.due) > 0 && !s.due[0].at.After(now); {
		d := s.due.pop()
		if d.dead() {
			continue
		}
		live++
		ins := d.ins
		if d.hedge {
			s.hedge(ins)
			continue
		}
		if d.req == "" {
			if s.cfg.Observer != nil {
				s.event("serve.evict_instance", map[string]any{"gathered": ins.view.Heard.Count()})
			}
			for _, w := range ins.waiters {
				s.abstain(ins, w)
			}
			s.settle(ins)
			s.ctr.evictions.Add(1)
			continue
		}
		i := ins.waiting(d.req)
		w := ins.waiters[i]
		ins.waiters = slices.Delete(ins.waiters, i, i+1)
		if s.cfg.Observer != nil {
			s.event("serve.abstain", map[string]any{"gathered": ins.view.Heard.Count(), "need": s.cfg.n() - s.cfg.F})
		}
		s.abstain(ins, w)
	}
}

// deliver is the mesh's Deliver: on the reader of the connection a frame
// arrived on, it posts the frame's messages to the loop, in order. It
// reads the payload in place, which the reader reuses once it returns: a
// posted event keeps only the instance id, which decoding copies. A
// malformed message ends the frame; the messages before it stand.
func (s *Server) deliver(from core.PID, payload []byte) {
	for {
		kind, inst, val, rest, err := decodePeerMsg(payload)
		if err != nil {
			s.event("serve.bad_peer_msg", map[string]any{"err": err.Error()})
			return
		}
		s.post(event{kind: kind, from: from, inst: inst, val: val})
		if payload = rest; len(payload) == 0 {
			return
		}
	}
}

// clientConn is one accepted client connection: a reader goroutine
// parses requests, answers reads and malformed lines itself and posts the
// other submits to the loop. Every response, the reader's and the
// loop's, goes out through the connection's netsub.Lane, written by
// whoever sends it while the lane is idle and by a writer goroutine
// otherwise, so responses may overtake each other but never interleave.
// A client that stops reading fills the lane's bounded queue and is
// disconnected — the mesh's backpressure discipline, client side.
type clientConn struct {
	c    net.Conn
	lane *netsub.Lane
	dead chan struct{} // closed by the reader on its way out
}

// clientQueue bounds the responses a connection's lane holds for its
// writer; clientWriteTimeout bounds one of the writer's writes.
const (
	clientQueue        = 64
	clientWriteTimeout = 5 * time.Second
)

func newClientConn(c net.Conn) *clientConn {
	return &clientConn{c: c, lane: netsub.NewLane(c, clientQueue), dead: make(chan struct{})}
}

// write sends r as one line, coded into the lane, and reports whether the
// lane took it.
func (cc *clientConn) write(r *Response) bool {
	_, ok := cc.lane.Push(appendResponse(cc.lane.Buf(), r))
	return ok
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.cln.Accept()
		if err != nil {
			return
		}
		cc := newClientConn(c)
		s.connMu.Lock()
		if s.halted {
			s.connMu.Unlock()
			c.Close()
			return
		}
		s.wg.Add(1)
		s.wwg.Add(1)
		s.connMu.Unlock()
		go s.readConn(cc)
		go s.writeConn(cc)
	}
}

func (s *Server) readConn(cc *clientConn) {
	defer s.wg.Done()
	defer close(cc.dead)
	in := newLineScanner(cc.c)
	for in.Scan() {
		var req Request
		if parseRequest(in.Bytes(), &req) != nil {
			return
		}
		resp := Response{Status: StatusError}
		start := time.Now()
		val, ok := s.read(req.Inst)
		switch {
		case req.Op == "submit" && (req.Inst == "" || req.Req == ""):
			resp.Err = "submit needs inst and req"
		case req.Op == "submit" && len(req.Inst) > maxInstanceID:
			resp.Err = "inst too long"
		case req.Op == "submit" && !ok:
			s.post(event{inst: req.Inst, val: req.Val, req: req.Req, timeout: req.TimeoutMS, cc: cc, start: start})
			continue
		case req.Op == "submit":
			s.ctr.submits.Add(1)
			resp = s.dup(req.Req, req.Inst, val)
			s.hReq.Since(start)
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
		if !cc.write(&resp) {
			return
		}
	}
	if in.Err() == bufio.ErrTooLong {
		cc.write(&Response{Status: StatusError, Err: "line too long"})
	}
}

// writeConn is the lane's writer: it writes what the senders could not,
// and owns the connection's close. On shutdown, and once the reader has
// gone, it first writes what is queued — "the loop acknowledged it"
// becomes "the client received it", and an answer the reader gave on its
// way out is not cut off.
func (s *Server) writeConn(cc *clientConn) {
	defer s.wwg.Done()
	defer cc.c.Close()
	defer cc.lane.Close()
	for {
		select {
		case <-cc.lane.Wake():
			if cc.lane.Flush(clientWriteTimeout) != nil {
				return
			}
		case <-s.done:
			cc.lane.Flush(clientWriteTimeout)
			return
		case <-cc.dead:
			cc.lane.Flush(clientWriteTimeout)
			return
		}
	}
}
