package exp

import (
	"repro/internal/abd"
	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/hoalg"
	"repro/internal/immediate"
	"repro/internal/msgnet"
	"repro/internal/predicate"
	"repro/internal/swmr"
	"repro/internal/view"
)

// X01FullInformation validates the paper's full-information machinery:
// §2 item 3's FIFO reconstruction (system A implements the non-round-based
// system N) and §2 item 4's emulated write operation (a completed write is
// visible to all in the subsequent round, under eqs. (3)+(4) — and fails
// without eq. (4)).
func X01FullInformation(quick bool) (*Table, error) {
	t := &Table{
		ID:      "X01",
		Title:   "full information: FIFO reconstruction and the emulated write",
		Ref:     "§2 items 3 and 4 (in-text constructions)",
		Columns: []string{"construction", "n", "f", "seeds", "result"},
	}
	seeds := seedsFor(quick, 30)

	inputs := func(n int) []core.Value {
		in := make([]core.Value, n)
		for i := range in {
			in[i] = i
		}
		return in
	}

	// FIFO reconstruction under eq. (3): every process's simulated
	// reception log must be FIFO per link with faithful payloads.
	for _, tc := range []struct{ n, f int }{{4, 2}, {6, 3}} {
		rs, err := sweep(seeds, func(seed int) (bool, error) {
			hist, _, err := view.RunHistory(tc.n, 6, inputs(tc.n),
				adversary.AsyncBudget(tc.n, tc.f, true, int64(seed)))
			if err != nil {
				return false, err
			}
			for p := core.PID(0); int(p) < tc.n; p++ {
				log, err := view.ReconstructFIFO(p, hist[p])
				if err != nil {
					return false, nil
				}
				if view.CheckFIFO(log) != nil {
					return false, nil
				}
			}
			return true, nil
		})
		if err != nil {
			return nil, err
		}
		ok := true
		for _, r := range rs {
			ok = ok && r
		}
		t.AddRow("A implements N (FIFO recreation)", tc.n, tc.f, seeds, verdict(ok))
	}

	// Emulated write under eqs. (3)+(4): completion happens and the
	// subsequent-round visibility claim holds for every writer.
	for _, tc := range []struct{ n, f int }{{5, 2}, {7, 3}} {
		rs, err := sweep(seeds, func(seed int) (bool, error) {
			hist, _, err := view.RunHistory(tc.n, tc.n+2, inputs(tc.n),
				adversary.SharedMem(tc.n, tc.f, int64(seed)))
			if err != nil {
				return false, err
			}
			for w := core.PID(0); int(w) < tc.n; w++ {
				em, err := view.EmulateWrite(tc.n, w, hist)
				if err != nil || em.CompleteRound == 0 {
					return false, nil
				}
			}
			return true, nil
		})
		if err != nil {
			return nil, err
		}
		ok := true
		for _, r := range rs {
			ok = ok && r
		}
		t.AddRow("emulated write (eqs. 3+4)", tc.n, tc.f, seeds, verdict(ok))
	}

	// Negative control: without eq. (4) the claim fails (a 2-process
	// partition).
	oracle := core.OracleFunc(func(r int, active core.Set) core.RoundPlan {
		return core.RoundPlan{Suspects: []core.Set{core.SetOf(2, 1), core.SetOf(2, 0)}}
	})
	hist, _, err := view.RunHistory(2, 4, inputs(2), oracle)
	if err != nil {
		return nil, err
	}
	_, emErr := view.EmulateWrite(2, 0, hist)
	t.AddRow("write fails without eq.(4)", 2, 1, 1, verdict(emErr != nil))
	t.AddNote("the emulated write needs eq.(4): the partition execution completes locally but is never visible")
	return t, nil
}

// X02ImmediateSnapshot validates the iterated immediate-snapshot model of
// reference [4] — the paper's credited origin: the one-shot object's three
// properties, the induced RRFD predicate, and its strict position below the
// §2 item 5 snapshot model in the lattice.
func X02ImmediateSnapshot(quick bool) (*Table, error) {
	t := &Table{
		ID:      "X02",
		Title:   "immediate snapshots: the iterated model of reference [4]",
		Ref:     "ref. [4] (Borowsky–Gafni), §6 related work",
		Columns: []string{"check", "n", "seeds/space", "result"},
	}
	seeds := seedsFor(quick, 20)

	for _, n := range []int{3, 5, 8} {
		iis := hoalg.ImmediateSnapshot(n).Compile()
		rs, err := sweep(seeds, func(seed int) (bool, error) {
			out, err := immediate.RunRounds(n, 3, swmr.Config{Chooser: swmr.Seeded(int64(seed))}, nil)
			if err != nil {
				return false, err
			}
			return iis.Holds(out.Trace), nil
		})
		if err != nil {
			return nil, err
		}
		ok := true
		for _, r := range rs {
			ok = ok && r
		}
		t.AddRow("IIS rounds satisfy the predicate", n, seeds, verdict(ok))
	}

	// Lattice position, proven exhaustively for n=3.
	_, satisfying, err := predicate.ExhaustiveImplies(3, 1,
		hoalg.ImmediateSnapshot(3).Compile(), hoalg.AtomicSnapshot(2).Compile())
	if err != nil {
		return nil, err
	}
	t.AddRow("IIS ⇒ snapshot [proof]", 3, 343, verdict(satisfying > 0))
	_, witnesses, err := predicate.ExhaustiveWitnesses(3, 1,
		hoalg.AtomicSnapshot(2).Compile(), hoalg.Immediacy().Compile())
	if err != nil {
		return nil, err
	}
	t.AddRow("snapshot ⇏ immediacy [census]", 3, witnesses, verdict(witnesses > 0))
	t.AddNote("IIS is a strict submodel of §2 item 5 — immediacy is the extra clause")
	return t, nil
}

// X03ABDRegister validates the Attiya–Bar-Noy–Dolev register emulation the
// paper cites as reference [22]: atomic reads/writes over asynchronous
// message passing with 2f < n, checked against real-time linearizability
// via the substrate's logical clock.
func X03ABDRegister(quick bool) (*Table, error) {
	t := &Table{
		ID:      "X03",
		Title:   "SWMR atomic register over message passing (ABD)",
		Ref:     "ref. [22], invoked by §2 item 4",
		Columns: []string{"n", "f", "crashes", "seeds", "ops checked", "atomicity"},
	}
	seeds := seedsFor(quick, 20)
	for _, tc := range []struct{ n, f, crashes int }{
		{3, 1, 0}, {5, 2, 0}, {5, 2, 2}, {7, 3, 2},
	} {
		type abdStat struct {
			ok  bool
			ops int
		}
		rs, err := sweep(seeds, func(seed int) (abdStat, error) {
			cfg := msgnet.Config{Chooser: core.Seeded(int64(seed))}
			if tc.crashes > 0 {
				cfg.Crash = map[core.PID]int{}
				for c := 0; c < tc.crashes; c++ {
					cfg.Crash[core.PID(tc.n-1-c)] = 20 + seed + 13*c
				}
			}
			out, err := abd.Run(tc.n, tc.f, cfg, func(r *abd.Register) error {
				if r.Writer() {
					for k := 1; k <= 3; k++ {
						if err := r.Write(k * 10); err != nil {
							return err
						}
					}
					return nil
				}
				for k := 0; k < 3; k++ {
					if _, err := r.Read(); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return abdStat{}, err
			}
			return abdStat{
				ok:  abd.CheckAtomic(out.Log) == nil,
				ops: len(out.Log),
			}, nil
		})
		if err != nil {
			return nil, err
		}
		ok := true
		ops := 0
		for _, s := range rs {
			ok = ok && s.ok
			ops += s.ops
		}
		t.AddRow(tc.n, tc.f, tc.crashes, seeds, ops, verdict(ok))
	}
	t.AddNote("quorum intersection (2f < n) is the operational face of the E04 two-round emulation")
	return t, nil
}
