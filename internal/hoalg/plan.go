package hoalg

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faultnet"
)

// CompilePlan lowers the expression to a seeded chaos fault plan for n
// processes.
//
// For a negation-free expression the plan is honest: benign noise (short
// delays, duplicates) the reliable links absorb, plus — when the expression
// leaves room — a rate-1.0 send-omission component whose sender set is
// small enough that the induced suspicions D(i,r) = senders \ {i} still
// satisfy every conjunct. A permanently omitting sender is exactly a
// send-omission-faulty process in the paper's eq. (1) sense: everyone else
// times out on it each round and suspects it, it keeps hearing everyone.
// That is the plan's lock-step reading (faultnet.Plan.LockStep), which a
// campaign sets chaos.Config.SyncRounds to execute, on the engine; under
// n−f rounds arrival order, like a crash, adds suspicions it never chose.
//
// For a top-level negation !e the plan is a breaker: the omitting sender
// set is sized so the induced suspicions must violate e (e.g. f+1 senders
// against a budget of f). Executions under the plan then violate e — and
// satisfy !e — deterministically. Expressions only violable by
// self-suspicion or non-uniform misses (selftrust, immediacy) are rejected,
// as are nested negations.
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
		count, err := breakerSenders(e.Kids[0], n)
		if err != nil {
			return faultnet.Plan{}, err
		}
		p.Components = append(p.Components, faultnet.Component{
			Kind: faultnet.SendOmission, Rate: 1.0,
			Senders: r.Perm(n)[:count], Name: "breaker"})
		return p, nil
	}
	allow, err := honestAllowance(e, n)
	if err != nil {
		return faultnet.Plan{}, err
	}
	if allow > n-1 {
		allow = n - 1
	}
	if allow > 0 {
		count := 1 + r.Intn(allow)
		p.Components = append(p.Components, faultnet.Component{
			Kind: faultnet.SendOmission, Rate: 1.0,
			Senders: r.Perm(n)[:count], Name: "honest-omission"})
	}
	return p, nil
}

// honestAllowance is the largest sender-set size s for which rate-1.0
// omission from s processes — inducing D(i,r) = senders \ {i} every round —
// still satisfies the expression. 0 means noise only.
func honestAllowance(e *Expr, n int) (int, error) {
	switch e.Op {
	case OpAtom:
		switch e.Atom {
		case AtomSelfTrust, AtomImmediacy:
			// Loopback is fault-free, so nobody self-suspects; missing
			// the same senders keeps D(i) ⊆ D(j) whenever i hears j.
			return n - 1, nil
		case AtomAtMost, AtomPerRound:
			return e.Args[0], nil
		case AtomBSys:
			return e.Args[0], nil
		case AtomKSet:
			// The uncertainty of D(i,r) = S \ {i} is exactly S.
			return e.Args[0] - 1, nil
		case AtomNoMutualMiss, AtomChain:
			// Two omitting senders already suspect each other / produce
			// incomparable sets S\{s1}, S\{s2}.
			return 1, nil
		case AtomSomeoneSeen, AtomNeverSusp:
			return n - 1, nil
		case AtomIdentical, AtomPropagates:
			// Any sender s yields D(s)=S\{s} ≠ D(i)=S, and s (still
			// live) never adopts its own suspicion.
			return 0, nil
		}
	case OpAnd:
		m := n - 1
		for _, k := range e.Kids {
			a, err := honestAllowance(k, n)
			if err != nil {
				return 0, err
			}
			if a < m {
				m = a
			}
		}
		return m, nil
	case OpOr:
		m := -1
		for _, k := range e.Kids {
			a, err := honestAllowance(k, n)
			if err != nil {
				return 0, err
			}
			if a > m {
				m = a
			}
		}
		return m, nil
	case OpNot:
		return 0, fmt.Errorf("hoalg: honest plans require a negation-free expression (a top-level ! compiles a violating plan instead): %s", e)
	case OpForever, OpEventually:
		return honestAllowance(e.Kids[0], n)
	}
	return 0, fmt.Errorf("hoalg: unknown op %d", e.Op)
}

// breakerSenders is the rate-1.0 omission sender count that forces every
// execution to violate the expression. Violation is monotone in the sender
// count for every supported atom (larger S keeps each listed witness), so
// And takes the cheapest violable conjunct and Or the maximum over
// branches.
func breakerSenders(e *Expr, n int) (int, error) {
	switch e.Op {
	case OpAtom:
		switch e.Atom {
		case AtomSelfTrust:
			return 0, fmt.Errorf("hoalg: cannot violate selftrust with message faults (loopback delivery is fault-free)")
		case AtomImmediacy:
			return 0, fmt.Errorf("hoalg: cannot violate immediacy with uniform omissions (shared sender sets preserve view containment)")
		case AtomAtMost:
			// |S| = f+1 distinct processes get suspected.
			return needSenders(e.Args[0]+1, n, e)
		case AtomPerRound:
			// A process outside S sees |D| = |S| = f+1 > f.
			f := e.Args[0]
			if f+1 > n-1 {
				return 0, fmt.Errorf("hoalg: violating %q needs %d omitting senders plus an observer, but n=%d", e, f+1, n)
			}
			return f + 1, nil
		case AtomKSet:
			// Uncertainty of D(i)=S\{i} is exactly S; |S| = k reaches it.
			return needSenders(e.Args[0], n, e)
		case AtomIdentical:
			return 1, nil
		case AtomPropagates:
			// The suspected sender stays live and never suspects itself.
			return 1, nil
		case AtomChain, AtomNoMutualMiss:
			return needSenders(2, n, e)
		case AtomSomeoneSeen, AtomNeverSusp:
			return n, nil
		case AtomBSys:
			f, t := e.Args[0], e.Args[1]
			if t+1 <= n-1 {
				// An observer outside S exceeds even the t budget.
				return t + 1, nil
			}
			if n-1 > f && n > t {
				// Everyone omits: all n processes exceed f, and n > t of
				// them is too many.
				return n, nil
			}
			return 0, fmt.Errorf("hoalg: cannot violate %q with omissions at n=%d", e, n)
		}
	case OpAnd:
		best := -1
		var firstErr error
		for _, k := range e.Kids {
			c, err := breakerSenders(k, n)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			if best < 0 || c < best {
				best = c
			}
		}
		if best < 0 {
			return 0, fmt.Errorf("hoalg: no conjunct of %q is violable by omissions: %w", e, firstErr)
		}
		return best, nil
	case OpOr:
		m := 0
		for _, k := range e.Kids {
			c, err := breakerSenders(k, n)
			if err != nil {
				return 0, err
			}
			if c > m {
				m = c
			}
		}
		return m, nil
	case OpNot:
		return 0, fmt.Errorf("hoalg: cannot compile a violating plan for a nested negation: %s", e)
	case OpForever, OpEventually:
		// The breaker violates in every round, so it violates the window
		// too — provided the execution runs past stab rounds.
		return breakerSenders(e.Kids[0], n)
	}
	return 0, fmt.Errorf("hoalg: unknown op %d", e.Op)
}

func needSenders(count, n int, e *Expr) (int, error) {
	if count > n {
		return 0, fmt.Errorf("hoalg: violating %q needs %d omitting senders but n=%d", e, count, n)
	}
	return count, nil
}
