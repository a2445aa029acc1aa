package reliablelink

import (
	"repro/internal/core"
	"repro/internal/msgnet"
)

// RoundsConfig tunes a reliable round-protocol execution.
type RoundsConfig struct {
	// Net configures the underlying lossy substrate (chooser, crashes,
	// fault injection, observer, step budget).
	Net msgnet.Config

	// Link configures each process's reliable endpoint.
	Link Config

	// WatchdogSteps is how many steps a process waits within one round —
	// retransmitting all the while — before it gives the round up, records
	// every still-missing sender as suspected for the round (the D(i,r)
	// entries) and moves on; 0 means 4096.
	WatchdogSteps int

	// LingerSteps is how long a process that finished its last round keeps
	// serving acknowledgements and retransmissions before returning, so
	// that slower peers can still complete; 0 means 1024.
	LingerSteps int
}

func (c RoundsConfig) watchdog() int {
	if c.WatchdogSteps <= 0 {
		return 4096
	}
	return c.WatchdogSteps
}

func (c RoundsConfig) linger() int {
	if c.LingerSteps <= 0 {
		return 1024
	}
	return c.LingerSteps
}

// RunReport is the structured diagnosis of a reliable-rounds execution —
// the replacement for opaque deadlock/step-budget sentinels: it says who
// was blocked, on whom, in which round, and how much recovery work the
// links did.
type RunReport struct {
	// Stalls lists every watchdog firing, ordered by (process, round).
	Stalls []msgnet.Stall

	// PerProc holds each process's link statistics.
	PerProc []Stats

	// Retransmissions, GiveUps and DupFramesReceived aggregate PerProc.
	Retransmissions   int
	GiveUps           int
	DupFramesReceived int

	// Steps is the substrate step count; Crashed the crashed processes.
	Steps   int
	Crashed core.Set

	// Errs holds per-process body errors (ErrCrashed for crashed ones).
	Errs map[core.PID]error
}

// Stalled reports whether any round stalled anywhere.
func (r *RunReport) Stalled() bool { return len(r.Stalls) > 0 }

// RunRounds executes the round-based f-resilient asynchronous protocol of
// §2 item 3 over reliable links on a lossy substrate: every process runs
// msgnet.RunSubstrateRounds on a Link, which retransmits lost frames
// underneath the loop. If a round stalls past the watchdog despite
// retransmission, the process records every missing sender in D(i,r) and
// advances — lost messages degrade into suspicions, never into deadlock.
// Each process lingers after its last round so peers can finish.
//
// The trace in the outcome is the induced RRFD trace; when no round
// stalled it satisfies eq. (3) (|D(i,r)| ≤ f) exactly as the unreliable
// substrate's protocol does, and predicate checking of the trace is how the
// chaos harness decides which model the faulty execution still realized.
// The RunReport is always non-nil, even alongside an error.
func RunRounds(n, f, rounds int, cfg RoundsConfig, emit core.RoundEmit) (*core.RoundOutcome, *RunReport, error) {
	return runRounds(n, f, rounds, cfg, emit, func(nd *msgnet.Node) msgnet.Substrate { return nd })
}

// runRounds is RunRounds with each link laid over under(node): the tests
// hide the node there, which sends every drive through msgnet.Drive's loop.
func runRounds(n, f, rounds int, cfg RoundsConfig, emit core.RoundEmit, under func(*msgnet.Node) msgnet.Substrate) (*core.RoundOutcome, *RunReport, error) {
	if err := core.CheckShape(n, f, rounds); err != nil {
		return nil, &RunReport{}, err
	}
	rep := &RunReport{PerProc: make([]Stats, n), Crashed: core.NewSet(n)}
	recs := make([]*core.RoundRec, n)
	stalls := make([][]msgnet.Stall, n)
	links := make([]*Link, n)
	out, err := msgnet.Run(n, cfg.Net, func(nd *msgnet.Node) (core.Value, error) {
		l := New(under(nd), cfg.Link)
		links[nd.Me] = l
		var err error
		recs[nd.Me], stalls[nd.Me], err = msgnet.RunSubstrateRounds(l, f, rounds, cfg.watchdog(), cfg.linger(), emit, func(s msgnet.Stall) {
			if cfg.Link.Observer != nil {
				l.event("rlink.watchdog", map[string]any{"round": s.Round, "missing": len(s.Missing), "step": s.Step})
			}
		})
		return nil, err
	})

	if out != nil {
		rep.Steps = out.Steps
		rep.Crashed = out.Crashed
		rep.Errs = out.Errs
	}
	for i := 0; i < n; i++ {
		if links[i] != nil {
			st := links[i].Stats()
			rep.PerProc[i] = st
			rep.Retransmissions += st.Retransmissions
			rep.GiveUps += st.GiveUps
			rep.DupFramesReceived += st.DupFramesReceived
			links[i].release()
		}
		rep.Stalls = append(rep.Stalls, stalls[i]...)
	}
	return core.AssembleRoundOutcome(n, recs, rep.Crashed, rep.Steps), rep, err
}
