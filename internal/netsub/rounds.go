package netsub

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/msgnet"
)

// RoundsConfig tunes a round-protocol execution over the network
// substrate (the in-process RunRounds harness and, field by field, the
// multi-process rrfdsim mode).
type RoundsConfig struct {
	// Node is the per-node Config template; Me, N, Addrs and Listener are
	// filled in per process. Its Observer and Hist are shared by all
	// nodes, which the obs layer supports.
	Node Config

	// Listeners, when non-nil, are the n pre-bound listeners to adopt —
	// the hook the socket chaos shim uses to interpose on every
	// connection. nil means bind n fresh loopback listeners.
	Listeners []net.Listener

	// Watchdog is how long a process waits within one round before it
	// gives the round up and records every still-missing sender as
	// suspected for the round (the D(i,r) entries). 0 means 2s.
	Watchdog time.Duration

	// Linger is how long a finished process keeps its node up so slower
	// peers can still hear its last round. 0 means 200ms.
	Linger time.Duration
}

func (c RoundsConfig) watchdog() time.Duration {
	if c.Watchdog <= 0 {
		return 2 * time.Second
	}
	return c.Watchdog
}

func (c RoundsConfig) linger() time.Duration {
	if c.Linger <= 0 {
		return 200 * time.Millisecond
	}
	return c.Linger
}

// RunReport is the structured diagnosis of a networked execution: who
// stalled, on whom, in which round, and how much transport work the
// pool did.
type RunReport struct {
	// Stalls lists every watchdog firing, ordered by (process, round).
	// The Step field of each stall is a millisecond tick of that node's
	// clock, not a scheduler step.
	Stalls []msgnet.Stall

	// PerProc holds each node's transport statistics.
	PerProc []Stats

	// Sheds and Reconnects aggregate PerProc.
	Sheds, Reconnects int64

	// Millis is the slowest node's clock at the end of the run — the
	// wall-clock analogue of the scheduler step count.
	Millis int

	// Errs holds per-process body errors.
	Errs map[core.PID]error
}

// Stalled reports whether any round stalled anywhere.
func (r *RunReport) Stalled() bool { return len(r.Stalls) > 0 }

// RunRounds is the in-process harness: it brings up n loopback nodes
// (or adopts cfg.Listeners, typically chaos-wrapped), runs
// msgnet.RunSubstrateRounds on each in its own goroutine, and assembles the
// same RoundOutcome shape the virtual substrates produce — so predicate
// checking and the chaos verdicts run unchanged on real sockets. The
// RunReport is always non-nil, even alongside an error.
func RunRounds(n, f, rounds int, cfg RoundsConfig, emit core.RoundEmit) (*core.RoundOutcome, *RunReport, error) {
	if err := core.CheckShape(n, f, rounds); err != nil {
		return nil, &RunReport{}, err
	}
	rep := &RunReport{PerProc: make([]Stats, n)}

	lns := cfg.Listeners
	if lns == nil {
		lns = make([]net.Listener, n)
		for i := range lns {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				for _, l := range lns[:i] {
					l.Close()
				}
				return nil, rep, fmt.Errorf("netsub: bind: %w", err)
			}
			lns[i] = ln
		}
	} else if len(lns) != n {
		return nil, rep, fmt.Errorf("netsub: %d listeners for %d processes", len(lns), n)
	}
	addrs := make([]string, n)
	for i, ln := range lns {
		addrs[i] = ln.Addr().String()
	}

	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		nc := cfg.Node
		nc.Me, nc.N, nc.Addrs, nc.Listener = core.PID(i), n, addrs, lns[i]
		nd, err := Start(nc)
		if err != nil {
			for _, prev := range nodes[:i] {
				prev.Close()
			}
			for _, ln := range lns[i:] {
				ln.Close()
			}
			return nil, rep, err
		}
		nodes[i] = nd
	}

	var onStall func(msgnet.Stall)
	if o := cfg.Node.Observer; o != nil {
		onStall = func(s msgnet.Stall) {
			o.Event("netsub.watchdog", s.Round, int(s.P), map[string]any{"missing": len(s.Missing), "tick": s.Step})
		}
	}
	recs := make([]*core.RoundRec, n)
	stalls := make([][]msgnet.Stall, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs[i], stalls[i], errs[i] = msgnet.RunSubstrateRounds(nodes[i], f, rounds,
				int(cfg.watchdog()/time.Millisecond), int(cfg.linger()/time.Millisecond), emit, onStall)
		}(i)
	}
	wg.Wait()

	// The lowest-pid failure is the run's error, whichever node failed
	// first on the wall clock.
	var err error
	for i, nd := range nodes {
		rep.Millis = max(rep.Millis, nd.Clock())
		rep.PerProc[i] = nd.Stats()
		nd.Close()
		rep.Sheds += rep.PerProc[i].Sheds
		rep.Reconnects += rep.PerProc[i].Reconnects
		rep.Stalls = append(rep.Stalls, stalls[i]...)
		if errs[i] == nil {
			continue
		}
		if err == nil {
			rep.Errs = make(map[core.PID]error)
			err = fmt.Errorf("netsub: p%d: %w", i, errs[i])
		}
		rep.Errs[core.PID(i)] = errs[i]
	}
	return core.AssembleRoundOutcome(n, recs, core.NewSet(n), rep.Millis), rep, err
}
