// Package recovery is the crash-recovery substrate: a supervised round
// protocol over msgnet in which a crashed process is restarted from its
// durable journal and re-joins the round structure through suspicion, as
// the crash-recovery failure model (Aguilera–Chen–Toueg, cf. PAPERS.md)
// prescribes.
//
// The package splits into two halves:
//
//   - Journal — per-process durable round state. The write discipline is
//     the classic one: the round-r emit record is flushed BEFORE the
//     round-r broadcast, so a recovered process never re-emits a round
//     with a different value than the one the network may already have
//     seen (no equivocation). View records may lag durability by
//     Config.FlushEvery rounds — that window is the amnesia risk, and an
//     honest recovery must treat it as lost.
//
//   - RunRounds — the n−f round protocol of msgnet.RunRounds extended
//     with journaling, supervised restart (msgnet.Config.Restart), and
//     catch-up: a recovered process resumes after its last durable round,
//     and every round it cannot complete (peers have moved on) it appears
//     in the peers' D sets — re-entry via suspicion, never via silent
//     equivocation. Completed rounds always carry an n−f quorum view, so
//     the induced trace satisfies S(i,r) ∪ D(i,r) = S and the eq. (3)
//     per-round budget |D(i,r)| ≤ f by construction; the tests verify
//     both on every recovered run.
package recovery

import "repro/internal/core"

// State is what a journal yields at recovery: the last journaled round,
// the estimate as of that round, and the last completed view.
type State struct {
	// Round is the highest round with a journal record (0 = empty journal).
	Round int

	// Est is the estimate of the latest emit record; HasEst reports whether
	// one exists.
	Est    int
	HasEst bool

	// LastView and LastViewRound are the view record of the highest
	// journaled completed round (nil/0 if none).
	LastView      map[core.PID]int
	LastViewRound int

	// Entries counts journal records contributing to this state.
	Entries int
}

// Journal is one process's durable round log with two durability classes:
// emit records are write-through (durable when LogEmit returns — they sit on
// the no-equivocation critical path, so they must hit stable storage before
// the broadcast), while view records buffer until Flush (they are bulk state
// batched for throughput — and they are the amnesia window). Implementations
// are used by one process incarnation at a time and need not be
// concurrency-safe.
type Journal interface {
	// LogEmit durably records the round-r estimate about to be broadcast.
	LogEmit(r, est int) error

	// LogView records round r's completed quorum view and suspect set; it
	// may remain volatile until the next Flush.
	LogView(r int, view map[core.PID]int, d core.Set) error

	// Flush makes every buffered view record durable.
	Flush() error

	// Crash models the process's crash: whatever was not flushed is lost.
	Crash() error

	// Recover returns the durable state — what an honest restart sees.
	Recover() (State, error)

	// Unflushed returns the state including the un-flushed tail: the state
	// a crash destroyed. Honest recoveries must not use it; the planted
	// amnesia bug does, and the chaos harness proves that gets caught.
	Unflushed() (State, error)
}

// entry is one journal record.
type entry struct {
	Round int
	Emit  bool
	Est   int
	View  map[core.PID]int
	D     core.Set
}

func stateOf(entries []entry) State {
	st := State{Entries: len(entries)}
	for _, e := range entries {
		if e.Round > st.Round {
			st.Round = e.Round
		}
		if e.Emit {
			st.Est, st.HasEst = e.Est, true
		} else if e.Round >= st.LastViewRound {
			st.LastView, st.LastViewRound = e.View, e.Round
		}
	}
	return st
}

// MemJournal is an in-memory Journal with an explicit durable/volatile
// split: Flush moves the volatile tail to the durable half, Crash discards
// it — the in-process model of a power loss destroying the page cache.
type MemJournal struct {
	durable  []entry
	volatile []entry

	// Lost counts entries discarded by Crash, for observability.
	Lost int
}

// NewMemJournal returns an empty in-memory journal.
func NewMemJournal() *MemJournal { return &MemJournal{} }

// LogEmit implements Journal: emit records are write-through durable.
func (j *MemJournal) LogEmit(r, est int) error {
	j.durable = append(j.durable, entry{Round: r, Emit: true, Est: est})
	return nil
}

// LogView implements Journal.
func (j *MemJournal) LogView(r int, view map[core.PID]int, d core.Set) error {
	cp := make(map[core.PID]int, len(view))
	for p, v := range view {
		cp[p] = v
	}
	j.volatile = append(j.volatile, entry{Round: r, View: cp, D: d.Clone()})
	return nil
}

// Flush implements Journal.
func (j *MemJournal) Flush() error {
	j.durable = append(j.durable, j.volatile...)
	j.volatile = nil
	return nil
}

// Crash implements Journal.
func (j *MemJournal) Crash() error {
	j.Lost += len(j.volatile)
	j.volatile = nil
	return nil
}

// Recover implements Journal.
func (j *MemJournal) Recover() (State, error) {
	return stateOf(j.durable), nil
}

// Unflushed implements Journal.
func (j *MemJournal) Unflushed() (State, error) {
	all := append(append([]entry(nil), j.durable...), j.volatile...)
	return stateOf(all), nil
}

var _ Journal = (*MemJournal)(nil)
