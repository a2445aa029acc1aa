package core

import (
	"errors"
	"testing"
)

// recordingAlg never decides and records the suspect set handed to it each
// round.
type recordingAlg struct {
	sus *[]Set
}

func (a recordingAlg) Emit(r int) Message { return nil }

func (a recordingAlg) Deliver(r int, msgs map[PID]Message, suspects Set) (Value, bool) {
	*a.sus = append(*a.sus, suspects.Clone()) // suspects is engine-owned scratch
	return nil, false
}

// TestTraceOracleReplaysSuspicionRetraction replays a trace in which p0
// suspects p2 in round 1 and retracts the suspicion in round 2 — the
// asynchronous-model behaviour (eq. (3)) that synchronous detectors forbid.
// The replay must deliver p2's message again after the retraction.
func TestTraceOracleReplaysSuspicionRetraction(t *testing.T) {
	n := 3
	tr := NewTrace(n)
	r1 := RoundRecord{R: 1, Active: FullSet(n), Crashed: NewSet(n),
		Suspects: []Set{SetOf(n, 2), NewSet(n), NewSet(n)},
		Deliver:  []Set{SetOf(n, 0, 1), FullSet(n), FullSet(n)}}
	r2 := RoundRecord{R: 2, Active: FullSet(n), Crashed: NewSet(n),
		Suspects: []Set{NewSet(n), NewSet(n), NewSet(n)},
		Deliver:  []Set{FullSet(n), FullSet(n), FullSet(n)}}
	tr.Append(r1)
	tr.Append(r2)

	var seen []Set
	_, err := Run(n, inputsOf(0, 1, 2), func(me PID, n int, input Value) Algorithm {
		if me == 0 {
			return recordingAlg{sus: &seen}
		}
		return nopAlgorithm{}
	}, TraceOracle(tr), WithMaxRounds(2))
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds (nothing decides)", err)
	}
	if len(seen) != 2 {
		t.Fatalf("p0 observed %d rounds, want 2", len(seen))
	}
	if !seen[0].Has(2) {
		t.Fatalf("round 1: p0's suspects = %s, want p2 suspected", seen[0])
	}
	if seen[1].Has(2) {
		t.Fatalf("round 2: p0's suspects = %s, want the suspicion retracted", seen[1])
	}

	// Re-collecting the replayed adversary must reproduce the suspect sets.
	got, err := CollectTrace(n, 2, TraceOracle(tr))
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= 2; r++ {
		for i := 0; i < n; i++ {
			if !got.Round(r).Suspects[i].Equal(tr.Round(r).Suspects[i]) {
				t.Fatalf("round %d p%d: replayed D = %s, original %s",
					r, i, got.Round(r).Suspects[i], tr.Round(r).Suspects[i])
			}
		}
	}
}

// TestCollectTraceZeroRounds asks for a zero-round collection: legal, and
// yields an empty (but non-nil) trace with no error.
func TestCollectTraceZeroRounds(t *testing.T) {
	tr, err := CollectTrace(3, 0, benignOracle(3))
	if err != nil {
		t.Fatal(err)
	}
	if tr == nil || tr.Len() != 0 {
		t.Fatalf("trace = %v, want empty non-nil", tr)
	}
	if tr.N != 3 {
		t.Fatalf("trace universe = %d, want 3", tr.N)
	}
}

// TestCollectTraceEmptyUniverse rejects n = 0 loudly instead of recording
// a trace over no processes.
func TestCollectTraceEmptyUniverse(t *testing.T) {
	if _, err := CollectTrace(0, 3, benignOracle(0)); err == nil {
		t.Fatal("n = 0 accepted")
	}
}

// TestCollectTraceSingleProcess: a universe of one is fine (it may suspect
// nobody, since D = S is forbidden).
func TestCollectTraceSingleProcess(t *testing.T) {
	tr, err := CollectTrace(1, 2, benignOracle(1))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 {
		t.Fatalf("rounds = %d, want 2", tr.Len())
	}
}
