package recovery

import (
	"fmt"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/msgnet"
	"repro/internal/obs"
)

// Config parameterises a supervised crash-and-recover execution.
type Config struct {
	// Net is the underlying scheduler configuration. Crash/Restart entries
	// are the supervisor: a crashed process with a Restart entry is respawned
	// that many steps later and takes the recovery path.
	Net msgnet.Config

	// FlushEvery flushes buffered view records every k completed rounds
	// (0 means 1 — flush after every round, no amnesia window). The view of
	// the final round is always flushed before a decision, whatever k is.
	FlushEvery int

	// WatchdogSteps is the per-round receive deadline: a process that cannot
	// assemble an n−f view within this many virtual steps gives the round up
	// and skips forward. 0 means 2048.
	WatchdogSteps int

	// Proposals supplies the initial estimates; nil means proposal i = i.
	Proposals []int

	// AmnesiaBug plants the recovery bug this harness exists to catch: a
	// recovered process trusts its un-flushed journal tail (state the crash
	// destroyed) and decides from its last pre-crash view instead of
	// abstaining. Audit flags every decision it produces.
	AmnesiaBug bool
}

// Outcome reports a supervised crash-and-recover execution.
type Outcome struct {
	// Trace is the induced RRFD trace: Active at round r is the set of
	// processes that completed r with a quorum view. It satisfies the
	// structural invariants (core.Trace.Validate) but, unlike fail-stop
	// traces, Active may re-grow when a process rejoins.
	Trace *core.Trace

	// Decisions maps each decided process to its decision. Honest processes
	// decide min of their final-round quorum view; abstainers are absent.
	Decisions map[core.PID]int

	// Crashed and Restarted mirror msgnet.Outcome; Rejoined is the subset of
	// restarted processes that completed at least one round after recovery.
	Crashed, Restarted, Rejoined core.Set

	// Replayed[p] is the number of journaled rounds process p restored at
	// recovery; Lost[p] is the number of journal records its crash destroyed.
	Replayed, Lost map[core.PID]int

	// Journals are the per-process journals after the run, for audit.
	Journals []*MemJournal

	// Proposals echoes the initial estimates (for validity checks).
	Proposals []int

	// Steps is the number of scheduled network operations.
	Steps int

	// Errs records per-process terminal errors (permanently crashed
	// processes report msgnet.ErrCrashed).
	Errs map[core.PID]error
}

// procState is one process's cross-incarnation record. The crashed
// incarnation is parked before its successor spawns, so there is no
// concurrent access.
type procState struct {
	rec       core.RoundRec
	recovered bool
	rejoined  bool
	replayed  int
	lost      int
	decided   bool
	decision  int
}

// floodTap is the node as the gather step sees it, with the min-flood
// spliced into the receive path: every round message that reaches the
// process — current, early or late — lowers *est before it is filed.
type floodTap struct {
	*msgnet.Node
	est *int
}

func (t floodTap) RecvTimeout(deadline int) (msgnet.Envelope, bool, error) {
	env, ok, err := t.Node.RecvTimeout(deadline)
	if m, isRound := env.Payload.(msgnet.RoundMsg); isRound {
		*t.est = min(*t.est, m.Value.(int))
	}
	return env, ok, err
}

// RunRounds executes the n−f round protocol under crash-and-recover faults.
// Every process journals with the write-ahead discipline (durable emit before
// broadcast, batched views); a restarted incarnation recovers its estimate
// from the durable journal, resumes after its last journaled round — never
// re-emitting a round the network may already have seen — and catches up by
// skipping rounds it can no longer complete. While it lags, it is simply
// missing from the quorums its peers assemble: it re-enters via suspicion,
// appearing in D(j,r) until it completes a round again.
//
// Decisions use the one-round quorum rule: a process decides min of its
// final-round view iff it assembled that view, which bounds distinct
// decisions by f+1 exactly as in the fail-stop analysis — recovery costs
// liveness (an uncaught-up process abstains), never safety.
func RunRounds(n, f, rounds int, cfg Config) (*Outcome, error) {
	if err := core.CheckShape(n, f, rounds); err != nil {
		return nil, err
	}
	journals := make([]*MemJournal, n)
	for i := range journals {
		journals[i] = &MemJournal{}
	}
	proposals := cfg.Proposals
	if proposals == nil {
		proposals = make([]int, n)
		for i := range proposals {
			proposals[i] = i
		}
	}
	if len(proposals) != n {
		return nil, fmt.Errorf("recovery: %d proposals for %d processes", len(proposals), n)
	}
	flushEvery := cfg.FlushEvery
	if flushEvery < 1 {
		flushEvery = 1
	}
	watchdog := cfg.WatchdogSteps
	if watchdog < 1 {
		watchdog = 2048
	}
	ob := cfg.Net.Observer

	procs := make([]procState, n)

	out, err := msgnet.Run(n, cfg.Net, func(nd *msgnet.Node) (core.Value, error) {
		me := &procs[nd.Me]
		j := journals[nd.Me]
		est := proposals[nd.Me]
		r := 1
		var bugView map[core.PID]int
		var final map[core.PID]core.Value // the last round's view, once assembled

		if nd.Incarnation() > 1 {
			// Recovery path. The honest order is crash-then-recover: the
			// volatile tail is gone before we look. The planted bug peeks at
			// the un-flushed state first and trusts it.
			if cfg.AmnesiaBug {
				bugView = j.Unflushed().LastView
			}
			before := j.Unflushed()
			j.Crash()
			st := j.Recover()
			me.recovered = true
			me.replayed = st.Round
			me.lost = before.Entries - st.Entries
			if st.HasEst {
				est = st.Est
			}
			r = st.Round + 1
			if ob != nil {
				ob.Observe(obs.Event{Kind: "recovery.recover", R: st.Round, P: int(nd.Me), Fields: map[string]any{
					"replayed_rounds": st.Round,
					"lost_records":    me.lost,
					"resume_round":    r,
				}})
			}
		}

		g := msgnet.NewGather(floodTap{nd, &est}, n-f)
		sinceFlush := 0
		for r <= rounds {
			// Durable emit before broadcast: a later incarnation resumes
			// after this round and can never contradict this message.
			j.LogEmit(r, est)
			if err := nd.Broadcast(msgnet.RoundMsg{Round: r, Value: est}); err != nil {
				return nil, err
			}
			got, full, err := g.Round(r, watchdog)
			if err != nil {
				return nil, err
			}
			if !full {
				// The round cannot complete (peers moved on, or too many are
				// down). Skip to the newest round the network is talking
				// about; the skipped rounds keep us in our peers' D sets.
				r = max(r+1, g.Newest())
				continue
			}
			view := make(map[core.PID]int, len(got))
			for p, v := range got {
				view[p] = v.(int) // only this body broadcasts here, and only ints
			}
			d := msgnet.Unheard(n, got)
			j.LogView(r, view, d)
			sinceFlush++
			// The final view must be durable before the decision it
			// justifies — crash-recovery's log-before-act rule.
			if sinceFlush >= flushEvery || r == rounds {
				j.Flush()
				sinceFlush = 0
			}
			me.rec.Complete(r, got, d)
			if r == rounds {
				final = got
			}
			if me.recovered && !me.rejoined {
				me.rejoined = true
				if ob != nil {
					ob.Observe(obs.Event{Kind: "recovery.rejoin", R: r, P: int(nd.Me), Fields: map[string]any{"round": r}})
				}
			}
			r++
		}

		// The one-round quorum rule. The planted bug applies it to the
		// pre-crash un-logged view as if that were durable truth.
		if cfg.AmnesiaBug && bugView != nil {
			me.decision, me.decided = agreement.QuorumMin(bugView, n-f)
		} else {
			me.decision, me.decided = agreement.QuorumMin(final, n-f)
		}
		return nil, nil
	})
	if err != nil {
		return nil, err
	}

	res := &Outcome{
		Decisions: make(map[core.PID]int),
		Crashed:   out.Crashed,
		Restarted: out.Restarted,
		Rejoined:  core.NewSet(n),
		Replayed:  make(map[core.PID]int),
		Lost:      make(map[core.PID]int),
		Journals:  journals,
		Proposals: proposals,
		Steps:     out.Steps,
		Errs:      out.Errs,
	}
	recs := make([]*core.RoundRec, n)
	for i := range procs {
		ps, pid := &procs[i], core.PID(i)
		recs[i] = &ps.rec
		if ps.decided {
			res.Decisions[pid] = ps.decision
		}
		if ps.rejoined {
			res.Rejoined.Add(pid)
		}
		if ps.recovered {
			res.Replayed[pid] = ps.replayed
			res.Lost[pid] = ps.lost
		}
	}
	res.Trace = core.InducedTrace(n, recs, out.Crashed)
	return res, nil
}
