package agreement

import (
	"repro/internal/core"
)

// QuorumMin is the honest one-round decision rule (internal/fleet folds
// its packed slabs separately): holding at least quorum round messages, a
// process decides the smallest int among them; with fewer it waits or
// abstains. Under eq. (3) with quorum n−f each process misses at most the
// f smallest inputs, so at most f+1 distinct minima are decided. The
// planted bugs are its callers' deliberate misuse: a wrong quorum
// (QuorumKSetBuggy, chaos QuorumBug) or a view not durably held (recovery
// AmnesiaBug).
func QuorumMin[V any](view map[core.PID]V, quorum int) (min int, ok bool) {
	if len(view) < quorum {
		return 0, false
	}
	for _, v := range view {
		if x, isInt := any(v).(int); isInt && (!ok || x < min) {
			min, ok = x, true
		}
	}
	return min, ok
}

// quorumKSet is the quorum-gated k-set algorithm the chaos harness and the
// model checker both exercise: emit the input, wait for a quorum of n−f
// round messages, decide by QuorumMin.
//
// The buggy variant has the classic off-by-one quorum check: it gates the
// min-decision on strictly *more* than n−f messages, and its "cannot
// happen" fallback decides the process's own input. The fallback is
// reachable precisely when the adversary makes |S(i,r)| = n−f — the
// boundary the model guarantees and the correct comparison accepts — and
// decides unreduced inputs, breaking k-agreement. The model checker must
// find this; see internal/mc's planted-bug test.
type quorumKSet struct {
	me      core.PID
	n, f    int
	input   int
	decided bool
	out     int
	buggy   bool
}

// QuorumKSet returns the factory for the quorum-gated k-set algorithm with
// fault bound f. Task values must be ints.
func QuorumKSet(f int) core.Factory {
	return func(me core.PID, n int, input core.Value) core.Algorithm {
		return &quorumKSet{me: me, n: n, f: f, input: input.(int)}
	}
}

// QuorumKSetBuggy is QuorumKSet with the planted wrong-quorum-size bug.
func QuorumKSetBuggy(f int) core.Factory {
	return func(me core.PID, n int, input core.Value) core.Algorithm {
		return &quorumKSet{me: me, n: n, f: f, input: input.(int), buggy: true}
	}
}

func (a *quorumKSet) Emit(r int) core.Message { return a.input }

func (a *quorumKSet) Deliver(r int, msgs map[core.PID]core.Message, suspects core.Set) (core.Value, bool) {
	if a.decided {
		return a.out, true
	}
	quorum := a.n - a.f
	if a.buggy {
		quorum++ // the planted off-by-one: "more than n−f"
	}
	min, ok := QuorumMin(msgs, quorum)
	switch {
	case ok:
		a.out, a.decided = min, true
	case a.buggy:
		// The planted bug's unreachable-looking fallback: with the wrong
		// comparison it fires on every |S(i,r)| = n−f round and decides
		// the raw input.
		a.out, a.decided = a.input, true
	default:
		// No quorum: outside eq. (3); keep waiting for one.
		return nil, false
	}
	return a.out, true
}

// Fingerprint implements the model checker's state-hash contract
// (mc.Fingerprinter) over the algorithm's complete mutable state.
func (a *quorumKSet) Fingerprint() uint64 {
	h := uint64(1469598103934665603)
	for _, v := range []uint64{uint64(a.me), uint64(a.input) + 1, boolBit(a.decided), uint64(a.out) + 1, boolBit(a.buggy)} {
		h = (h ^ v) * 1099511628211
	}
	return h
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Fingerprint implements mc.Fingerprinter for FloodMin, hashing the
// current estimate and horizon.
func (a *floodMin) Fingerprint() uint64 {
	h := uint64(1469598103934665603)
	h = (h ^ uint64(a.est+1)) * 1099511628211
	h = (h ^ uint64(a.rounds)) * 1099511628211
	return h
}
