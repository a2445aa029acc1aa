package view

import (
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
)

func inputsOf(n int) []core.Value {
	inputs := make([]core.Value, n)
	for i := range inputs {
		inputs[i] = i * 100
	}
	return inputs
}

func TestFullInfoBenign(t *testing.T) {
	n := 4
	views, res, err := Run(n, 2, inputsOf(n), adversary.Benign(n))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 2 {
		t.Fatalf("rounds = %d", res.Rounds)
	}
	for p, v := range views {
		if v.Round != 2 || v.Owner != p {
			t.Fatalf("view %s mis-shaped", v)
		}
		if !v.KnownSet(n).Equal(core.FullSet(n)) {
			t.Fatalf("p%d does not know everyone after a benign round", p)
		}
		v.walk(func(sub *View) {
			if sub.Input != int(sub.Owner)*100 {
				t.Fatalf("p%d holds input %v for p%d", p, sub.Input, sub.Owner)
			}
		})
	}
}

func TestKnowledgeRespectsSuspicion(t *testing.T) {
	// p1's messages are suspected everywhere each round: nobody (except
	// p1) ever learns its input.
	n := 3
	oracle := core.OracleFunc(func(r int, active core.Set) core.RoundPlan {
		sus := make([]core.Set, n)
		for i := range sus {
			if core.PID(i) == 1 {
				sus[i] = core.NewSet(n)
			} else {
				sus[i] = core.SetOf(n, 1)
			}
		}
		return core.RoundPlan{Suspects: sus}
	})
	views, _, err := Run(n, 3, inputsOf(n), oracle)
	if err != nil {
		t.Fatal(err)
	}
	if views[0].Knows(1) || views[2].Knows(1) {
		t.Fatal("knowledge leaked past permanent suspicion")
	}
	if !views[1].Knows(0) {
		t.Fatal("p1 receives others and should know them")
	}
	if !views[1].Knows(1) {
		t.Fatal("p1 must know itself")
	}
}

func TestAtAndPrevChain(t *testing.T) {
	n := 3
	hist, _, err := RunHistory(n, 3, inputsOf(n), adversary.Benign(n))
	if err != nil {
		t.Fatal(err)
	}
	final := hist[0][2]
	for r := 0; r <= 2; r++ {
		sub := final.At(0, r)
		if sub == nil || sub.Owner != 0 || sub.Round > r {
			t.Fatalf("At(0,%d) = %v", r, sub)
		}
	}
	// Another process's old view is reachable through receptions.
	if sub := final.At(2, 1); sub == nil || sub.Owner != 2 {
		t.Fatalf("At(2,1) = %v", sub)
	}
	if !strings.Contains(final.String(), "p0 r3") {
		t.Fatalf("String = %s", final)
	}
}

func TestKnownByAll(t *testing.T) {
	n := 5
	views, _, err := Run(n, 1, inputsOf(n), adversary.SharedMem(n, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	// Shared-memory predicate: someone is suspected by nobody, so someone
	// is known by all after one round.
	if KnownByAll(n, views).Empty() {
		t.Fatal("eq4 must leave someone known by all after one round")
	}
}

func TestReconstructFIFO(t *testing.T) {
	n, f, rounds := 5, 2, 6
	for seed := int64(0); seed < 30; seed++ {
		hist, _, err := RunHistory(n, rounds, inputsOf(n), adversary.AsyncBudget(n, f, true, seed))
		if err != nil {
			t.Fatal(err)
		}
		for p := core.PID(0); int(p) < n; p++ {
			log, err := ReconstructFIFO(p, hist[p])
			if err != nil {
				t.Fatalf("seed %d p%d: %v", seed, p, err)
			}
			if err := CheckFIFO(log); err != nil {
				t.Fatalf("seed %d p%d: %v", seed, p, err)
			}
			// Payload faithfulness: a simulated round-x message from j
			// must be j's actual end-of-(x−1) view.
			for _, rec := range log {
				if rec.Round >= 2 {
					want := hist[rec.From][rec.Round-2]
					if rec.Payload != want {
						t.Fatalf("seed %d p%d: payload for (%d,r%d) is not the sender's real view",
							seed, p, rec.From, rec.Round)
					}
				}
			}
		}
	}
}

func TestReconstructFIFOCoversGaps(t *testing.T) {
	// Force a gap: p0 misses p1 in rounds 1-2, hears it at round 3; the
	// log must then contain p1's rounds 1,2,3 in order at that point.
	n := 3
	oracle := core.OracleFunc(func(r int, active core.Set) core.RoundPlan {
		sus := make([]core.Set, n)
		for i := range sus {
			sus[i] = core.NewSet(n)
		}
		if r <= 2 {
			sus[0] = core.SetOf(n, 1)
		}
		return core.RoundPlan{Suspects: sus}
	})
	hist, _, err := RunHistory(n, 4, inputsOf(n), oracle)
	if err != nil {
		t.Fatal(err)
	}
	log, err := ReconstructFIFO(0, hist[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckFIFO(log); err != nil {
		t.Fatal(err)
	}
	var from1 []int
	for _, rec := range log {
		if rec.From == 1 {
			from1 = append(from1, rec.Round)
		}
	}
	if len(from1) != 4 || from1[0] != 1 || from1[3] != 4 {
		t.Fatalf("receptions from p1 = %v, want 1..4", from1)
	}
}

func TestCheckFIFODetectsViolations(t *testing.T) {
	bad := []Reception{{From: 1, Round: 2}}
	if err := CheckFIFO(bad); err == nil {
		t.Fatal("gap undetected")
	}
	bad2 := []Reception{{From: 1, Round: 1}, {From: 1, Round: 1}}
	if err := CheckFIFO(bad2); err == nil {
		t.Fatal("duplicate undetected")
	}
}

func TestEmulateWriteUnderSharedMemory(t *testing.T) {
	// §2 item 4: under eqs. (3)+(4) a completed write is visible to all
	// in the subsequent round.
	n, f := 5, 2
	for seed := int64(0); seed < 40; seed++ {
		hist, _, err := RunHistory(n, n+2, inputsOf(n), adversary.SharedMem(n, f, seed))
		if err != nil {
			t.Fatal(err)
		}
		for w := core.PID(0); int(w) < n; w++ {
			em, err := EmulateWrite(n, w, hist)
			if err != nil {
				t.Fatalf("seed %d writer %d: %v", seed, w, err)
			}
			if em.CompleteRound == 0 {
				t.Fatalf("seed %d writer %d: write never completed", seed, w)
			}
		}
	}
}

func TestEmulateWriteFailsUnderPartition(t *testing.T) {
	// Without eq. (4) the claim genuinely fails: a 2-process partition
	// completes the write locally but the other side never learns it.
	n := 2
	oracle := core.OracleFunc(func(r int, active core.Set) core.RoundPlan {
		return core.RoundPlan{Suspects: []core.Set{core.SetOf(n, 1), core.SetOf(n, 0)}}
	})
	hist, _, err := RunHistory(n, 4, inputsOf(n), oracle)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EmulateWrite(n, 0, hist); err == nil {
		t.Fatal("partitioned write emulation should violate the item 4 claim")
	}
}
