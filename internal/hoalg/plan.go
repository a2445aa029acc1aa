package hoalg

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faultnet"
)

// CompilePlan lowers the expression to a seeded chaos fault plan for n
// processes: benign noise (short delays, duplicates) the reliable links
// absorb, plus a rate-1.0 send-omission component. A permanently omitting
// sender is exactly a send-omission-faulty process in the paper's eq. (1)
// sense: everyone else times out on it each round and suspects it, it
// keeps hearing everyone, so omission from a sender set S induces
// D(i,r) = S ∖ {i} in every round. That is the plan's lock-step reading
// (faultnet.Plan.LockStep), which a campaign sets chaos.Config.SyncRounds
// to execute, on the engine; under n−f rounds arrival order, like a crash,
// adds suspicions it never chose.
//
// The sender count is read off the compiled checker, never off the atoms:
// Compile().Holds judges the lock-step trace of omission from s senders
// (omissionProbe). An honest plan draws its count from 1..a, a ≤ n−1 the
// largest count such that every count up to it satisfies the expression;
// with a = 0 it is noise only, provided the fault-free trace satisfies the
// expression. For a top-level negation !e the plan is a breaker: the
// smallest count whose trace violates e, so executions under the plan
// violate e — and satisfy !e — deterministically. An expression no count
// satisfies (honest) or violates (breaker) is an error.
//
// The plan is a pure function of (expression, n, seed).
func (e *Expr) CompilePlan(n int, seed int64) (faultnet.Plan, error) {
	if n < 2 {
		return faultnet.Plan{}, fmt.Errorf("hoalg: fault plans need n >= 2, got n=%d", n)
	}
	r := core.NewRand(seed)
	p := faultnet.Plan{Seed: seed}
	// Benign noise first: short delays (well under any watchdog) and
	// duplicate deliveries. Neither can induce a suspicion on its own.
	p.Components = append(p.Components,
		faultnet.Component{Kind: faultnet.Delay, Rate: 0.2 + 0.3*r.Float(),
			MaxDelay: 1 + r.Intn(8), Name: "noise-delay"},
		faultnet.Component{Kind: faultnet.Duplicate, Rate: 0.1 + 0.2*r.Float(),
			Copies: 1 + r.Intn(2), Name: "noise-dup"},
	)
	if e.Op == OpNot {
		holds := omissionProbe(e.Kids[0], n)
		for count := 1; count <= n; count++ {
			if !holds(count) {
				p.Components = append(p.Components, faultnet.Component{
					Kind: faultnet.SendOmission, Rate: 1.0,
					Senders: r.Perm(n)[:count], Name: "breaker"})
				return p, nil
			}
		}
		return faultnet.Plan{}, fmt.Errorf("hoalg: no rate-1.0 send omission violates %q at n=%d", e.Kids[0], n)
	}
	holds := omissionProbe(e, n)
	allow := 0
	for allow < n-1 && holds(allow+1) {
		allow++
	}
	if allow == 0 {
		if !holds(0) {
			return faultnet.Plan{}, fmt.Errorf("hoalg: no rate-1.0 send omission satisfies %q at n=%d", e, n)
		}
		return p, nil
	}
	count := 1 + r.Intn(allow)
	p.Components = append(p.Components, faultnet.Component{
		Kind: faultnet.SendOmission, Rate: 1.0,
		Senders: r.Perm(n)[:count], Name: "honest-omission"})
	return p, nil
}

// omissionProbe reports whether e holds of the lock-step trace of rate-1.0
// omission from senders 0..s−1. The trace runs to e's largest eventually
// stab plus two rounds, so every window holds a round and its successor;
// the pattern is the same every round, so more rounds cannot change the
// verdict.
func omissionProbe(e *Expr, n int) func(s int) bool {
	pred, rounds := e.Compile(), maxStab(e)+2
	senders := make([]core.PID, n)
	for i := range senders {
		senders[i] = core.PID(i)
	}
	return func(s int) bool { return pred.Holds(lockStepTrace(n, rounds, senders[:s])) }
}

// lockStepTrace is the trace that the lock-step reading of rate-1.0
// omission from senders induces over the given rounds. The oracle's round
// plans go straight into core.InducedTrace: nothing runs on the engine, so
// no default observer counts a probe as an execution.
func lockStepTrace(n, rounds int, senders []core.PID) *core.Trace {
	oracle, err := faultnet.Plan{Components: []faultnet.Component{
		{Kind: faultnet.SendOmission, Rate: 1.0, Senders: senders}}}.LockStep(n, 0)
	if err != nil {
		panic(err) // rate-1.0 omission always has a lock-step reading
	}
	recs := make([]*core.RoundRec, n)
	for i := range recs {
		recs[i] = new(core.RoundRec)
	}
	all := core.FullSet(n)
	for r := 1; r <= rounds; r++ {
		for i, d := range oracle.Plan(r, all).Suspects {
			recs[i].Complete(r, nil, d)
		}
	}
	return core.InducedTrace(n, recs, core.NewSet(n))
}

// maxStab is the largest stab of any eventually node in e, 0 without one.
func maxStab(e *Expr) int {
	m := 0
	if e.Op == OpEventually {
		m = e.Args[0]
	}
	for _, k := range e.Kids {
		m = max(m, maxStab(k))
	}
	return m
}
