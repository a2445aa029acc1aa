package simulate

import (
	"fmt"

	"repro/internal/core"
)

// TwoForOneMode selects the view-adoption rule of a two-base-rounds-per-
// simulated-round construction.
type TwoForOneMode int

const (
	// ModeUnion is §2 item 4's emulation of one shared-memory round by
	// two message-passing rounds: the simulated reception set is the
	// union of the first-round views relayed by the second-round sources.
	ModeUnion TwoForOneMode = iota + 1

	// ModeAdopt is §2 item 3's B→A construction: adopt wholesale the
	// first-round view of any second-round source whose view fits the
	// target budget f.
	ModeAdopt
)

// relay is the even-round message: the sender's odd-round receptions.
type relay struct {
	views map[core.PID]core.Message
}

// twoForOne wraps a target-system algorithm so it can run on a base oracle
// at half speed: odd engine rounds carry the algorithm's messages, even
// rounds relay first-round views, and the algorithm's Deliver sees the
// simulated round.
type twoForOne struct {
	me     core.PID
	n      int
	inner  core.Algorithm
	mode   TwoForOneMode
	budget int // target budget f for ModeAdopt

	pending core.Message // inner's message for the current simulated round
	got     map[core.PID]core.Message
	rec     core.RoundRec // simulated D(i,ρ), for trace assembly
	err     error
}

func (a *twoForOne) Emit(r int) core.Message {
	if r%2 == 1 {
		a.pending = a.inner.Emit((r + 1) / 2)
		return a.pending
	}
	return relay{views: a.got}
}

func (a *twoForOne) Deliver(r int, msgs map[core.PID]core.Message, suspects core.Set) (core.Value, bool) {
	if r%2 == 1 {
		// msgs is engine-owned scratch; a.got is relayed next round, so
		// it needs an owned copy.
		a.got = make(map[core.PID]core.Message, len(msgs))
		for p, m := range msgs {
			a.got[p] = m
		}
		return nil, false
	}
	rho := r / 2
	simMsgs, simD, err := a.assemble(msgs)
	if err != nil {
		if a.err == nil {
			a.err = fmt.Errorf("simulate: process %d at simulated round %d: %w", a.me, rho, err)
		}
		return nil, false
	}
	a.rec.Complete(rho, nil, simD)
	return a.inner.Deliver(rho, simMsgs, simD)
}

func (a *twoForOne) assemble(relays map[core.PID]core.Message) (map[core.PID]core.Message, core.Set, error) {
	switch a.mode {
	case ModeUnion:
		sim := make(map[core.PID]core.Message)
		for _, m := range relays {
			rel, ok := m.(relay)
			if !ok {
				return nil, core.Set{}, fmt.Errorf("foreign relay %T", m)
			}
			for j, v := range rel.views {
				sim[j] = v
			}
		}
		d := core.FullSet(a.n)
		for j := range sim {
			d.Remove(j)
		}
		if d.Count() == a.n {
			return nil, core.Set{}, fmt.Errorf("empty simulated view")
		}
		return sim, d, nil
	case ModeAdopt:
		var best map[core.PID]core.Message
		for _, m := range relays {
			rel, ok := m.(relay)
			if !ok {
				return nil, core.Set{}, fmt.Errorf("foreign relay %T", m)
			}
			if a.n-len(rel.views) > a.budget {
				continue // source exceeded the target budget
			}
			if best == nil || len(rel.views) > len(best) {
				best = rel.views
			}
		}
		if best == nil {
			return nil, core.Set{}, fmt.Errorf("no source within budget f=%d", a.budget)
		}
		sim := make(map[core.PID]core.Message, len(best))
		for j, v := range best {
			sim[j] = v
		}
		d := core.FullSet(a.n)
		for j := range sim {
			d.Remove(j)
		}
		return sim, d, nil
	default:
		return nil, core.Set{}, fmt.Errorf("unknown mode %d", a.mode)
	}
}

// TwoForOneResult reports an executable two-for-one simulation.
type TwoForOneResult struct {
	// Result holds the algorithm's outputs with SIMULATED round numbers
	// and the simulated trace.
	Result *core.Result

	// BaseRounds is the number of base-system rounds consumed.
	BaseRounds int
}

// RunTwoForOne executes an algorithm designed for the simulated system on a
// base oracle, two base rounds per simulated round. mode picks the §2
// construction; budget is the target system's f (used by ModeAdopt). The
// simulation runs until every live process decides or maxSim simulated
// rounds elapse.
func RunTwoForOne(n int, inputs []core.Value, factory core.Factory, base core.Oracle,
	mode TwoForOneMode, budget, maxSim int) (*TwoForOneResult, error) {
	wrappers := make([]*twoForOne, n)
	wrapped := func(me core.PID, nn int, input core.Value) core.Algorithm {
		w := &twoForOne{
			me: me, n: nn, mode: mode, budget: budget,
			inner: factory(me, nn, input),
		}
		wrappers[me] = w
		return w
	}
	res, err := core.Run(n, inputs, wrapped, base, core.WithMaxRounds(2*maxSim))
	for _, w := range wrappers {
		// A wrapper error (e.g. no budget-compliant source) is the root
		// cause; report it in preference to the engine's round-limit
		// symptom.
		if w != nil && w.err != nil {
			return nil, w.err
		}
	}
	if err != nil {
		return nil, err
	}

	recs := make([]*core.RoundRec, n)
	for i, w := range wrappers {
		recs[i] = &w.rec
	}
	sim := &core.Result{
		Outputs:   res.Outputs,
		DecidedAt: make(map[core.PID]int, len(res.DecidedAt)),
		Rounds:    res.Rounds / 2,
		Crashed:   res.Crashed,
		Trace:     core.InducedTrace(n, recs, res.Crashed),
	}
	for p, r := range res.DecidedAt {
		sim.DecidedAt[p] = r / 2
	}
	return &TwoForOneResult{Result: sim, BaseRounds: res.Rounds}, nil
}
