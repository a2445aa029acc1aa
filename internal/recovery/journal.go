// Package recovery is the crash-recovery substrate: a supervised round
// protocol over msgnet in which a crashed process is restarted from its
// durable journal and re-joins the round structure through suspicion, as
// the crash-recovery failure model (Aguilera–Chen–Toueg, cf. PAPERS.md)
// prescribes.
//
// The package splits into two halves:
//
//   - MemJournal — per-process durable round state. The write discipline is
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

// MemJournal is one process's durable round log, in memory, with two
// durability classes: emit records are write-through (durable when LogEmit
// returns — they sit on the no-equivocation critical path, so they must hit
// stable storage before the broadcast), while view records buffer until
// Flush (they are bulk state batched for throughput — and they are the
// amnesia window). Flush moves the volatile tail to the durable half, Crash
// discards it — the in-process model of a power loss destroying the page
// cache. A journal is used by one process incarnation at a time and is not
// concurrency-safe. The zero value is an empty journal.
type MemJournal struct {
	durable  []entry
	volatile []entry

	// Lost counts entries discarded by Crash, for observability.
	Lost int
}

// LogEmit durably records the round-r estimate about to be broadcast.
func (j *MemJournal) LogEmit(r, est int) {
	j.durable = append(j.durable, entry{Round: r, Emit: true, Est: est})
}

// LogView records round r's completed quorum view and suspect set; it
// stays volatile until the next Flush.
func (j *MemJournal) LogView(r int, view map[core.PID]int, d core.Set) {
	cp := make(map[core.PID]int, len(view))
	for p, v := range view {
		cp[p] = v
	}
	j.volatile = append(j.volatile, entry{Round: r, View: cp, D: d.Clone()})
}

// Flush makes every buffered view record durable.
func (j *MemJournal) Flush() {
	j.durable = append(j.durable, j.volatile...)
	j.volatile = nil
}

// Crash models the process's crash: whatever was not flushed is lost.
func (j *MemJournal) Crash() {
	j.Lost += len(j.volatile)
	j.volatile = nil
}

// Recover returns the durable state — what an honest restart sees.
func (j *MemJournal) Recover() State {
	return stateOf(j.durable)
}

// Unflushed returns the state including the un-flushed tail: the state a
// crash destroyed. Honest recoveries must not use it; the planted amnesia
// bug does, and the chaos harness proves that gets caught.
func (j *MemJournal) Unflushed() State {
	all := append(append([]entry(nil), j.durable...), j.volatile...)
	return stateOf(all)
}
