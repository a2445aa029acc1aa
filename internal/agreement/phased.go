package agreement

import "repro/internal/core"

// This file implements the structured, adopt-commit-based consensus of
// Yang, Neiger and Gafni (the paper's reference [16], used in §4.2) at the
// RRFD level, and with it extends the library to the EVENTUAL-accuracy
// detector — the round-by-round analogue of ◇S, an instance of the §7
// research programme ("show that in a precise sense RRFD generalizes the
// earlier notion of fault detector and rederive the associated results").
//
// The algorithm proceeds in phases of three rounds under the asynchronous
// predicate eq. (3) with 2f < n:
//
//	round 3φ+1 — coordinator round: everyone emits its estimate and
//	             adopts the phase coordinator's estimate if received;
//	round 3φ+2 — adopt-commit phase 1: emit the estimate as a proposal;
//	             if every received proposal carries one value w, set the
//	             estimate to w and grade "commit", else grade "adopt";
//	round 3φ+3 — adopt-commit phase 2: emit the grade; decide v iff every
//	             received grade is commit-v; adopt v iff some commit-v is
//	             received; otherwise keep the estimate.
//
// Safety needs only 2f < n: any two receive sets of size ≥ n−f intersect,
// so two processes cannot commit different values in one phase, and a
// decided value is adopted by everyone (every receive set contains one of
// the decider's commit-v sources), making the next phase unanimous.
// Liveness needs the detector to eventually stop suspecting some process:
// once the rotation reaches a never-again-suspected coordinator, every
// process adopts its estimate and the next adopt-commit commits it.
type phasedConsensus struct {
	n   int
	est core.Value

	graded  bool // grade computed in phase 1, emitted in phase 2
	decided bool
	out     core.Value
}

// phaseMsg is a phased-consensus message: an estimate in coordinator and
// proposal rounds, a graded proposal in the second adopt-commit round.
type phaseMsg struct {
	commit bool
	value  core.Value
}

// PhasedConsensus returns the factory for adopt-commit-based consensus
// under the eventual-accuracy RRFD (predicate.PerRoundBudget(f) with
// 2f < n, plus predicate.EventuallyNeverSuspected for termination). A
// process keeps participating after deciding, so laggards catch up one
// phase later.
func PhasedConsensus() core.Factory {
	return func(me core.PID, n int, input core.Value) core.Algorithm {
		return &phasedConsensus{n: n, est: input}
	}
}

func (a *phasedConsensus) Emit(r int) core.Message {
	if (r-1)%3 == 2 {
		return phaseMsg{commit: a.graded, value: a.est}
	}
	return phaseMsg{value: a.est}
}

func (a *phasedConsensus) Deliver(r int, msgs map[core.PID]core.Message, suspects core.Set) (core.Value, bool) {
	phase := (r - 1) / 3
	switch (r - 1) % 3 {
	case 0: // coordinator round
		coord := core.PID(phase % a.n)
		if m, ok := msgs[coord]; ok && !suspects.Has(coord) {
			a.est = m.(phaseMsg).value
		}
	case 1: // adopt-commit phase 1
		unanimous := true
		var common core.Value
		first := true
		for _, m := range msgs {
			v := m.(phaseMsg).value
			if first {
				common, first = v, false
			} else if v != common {
				unanimous = false
				break
			}
		}
		if unanimous && !first {
			a.est = common
			a.graded = true
		} else {
			a.graded = false
		}
	default: // adopt-commit phase 2
		sawCommit, allCommit := false, true
		var commitVal core.Value
		for _, m := range msgs {
			pm := m.(phaseMsg)
			if pm.commit {
				sawCommit = true
				commitVal = pm.value
			} else {
				allCommit = false
			}
		}
		switch {
		case sawCommit && allCommit:
			a.est = commitVal
			if !a.decided {
				a.decided, a.out = true, commitVal
			}
		case sawCommit:
			a.est = commitVal
		}
	}
	if a.decided {
		return a.out, true
	}
	return nil, false
}

var _ core.Algorithm = (*phasedConsensus)(nil)
