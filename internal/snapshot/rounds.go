package snapshot

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/swmr"
)

// roundCell is the register payload: the owner's per-round emissions.
type roundCell struct {
	round  int
	values []core.Value // values[r-1] is the round-r emission
}

// RunRounds executes rounds rounds of the snapshot-based iterated protocol
// of §2 item 5 over n processes with resilience f: core.RunRounds with the
// snapshot exchange — a process appends its round value to its snapshot
// component, then scans until at most f round-r values are missing. D(i,r)
// is the set of processes whose round-r value was missing from the
// deciding scan.
//
// The returned trace satisfies the AtomicSnapshot(f) predicate (eq. (3),
// self-inclusion, and containment-ordered suspect sets) — that is Theorem-
// level content of §2 item 5 and is validated in this package's tests.
//
// The scheduler configuration may crash at most f processes; more would
// block the survivors and trip swmr's step budget.
func RunRounds(n, f, rounds int, cfg swmr.Config, emit core.RoundEmit) (*core.RoundOutcome, error) {
	if err := core.CheckShape(n, f, rounds); err != nil {
		return nil, err
	}
	if len(cfg.Crash) > f {
		return nil, fmt.Errorf("snapshot: %d crashes exceed resilience f=%d", len(cfg.Crash), f)
	}

	// Each body writes only its own slot; swmr.Run returning after every
	// body has finished gives the happens-before edge for reading them.
	recs := make([]*core.RoundRec, n)
	out, err := swmr.Run(n, cfg, func(p *swmr.Proc) (core.Value, error) {
		obj := New(p, "rounds")
		var mine []core.Value
		rec, err := core.RunRounds(p.Me, n, rounds, emit, func(r int, v core.Value) (map[core.PID]core.Value, core.Set, error) {
			mine = append(mine, v)
			if err := obj.Update(roundCell{round: r, values: mine}); err != nil {
				return nil, core.Set{}, err
			}
			for {
				view, err := obj.Scan()
				if err != nil {
					return nil, core.Set{}, err
				}
				present := core.NewSet(n)
				msgs := make(map[core.PID]core.Value, n)
				for j, c := range view {
					cell, ok := c.Value.(roundCell)
					if !ok || cell.round < r {
						continue
					}
					present.Add(core.PID(j))
					msgs[core.PID(j)] = cell.values[r-1]
				}
				if n-present.Count() <= f {
					return msgs, present.Complement(), nil
				}
			}
		})
		recs[p.Me] = rec
		return nil, err
	})
	if err != nil {
		return nil, err
	}
	return core.AssembleRoundOutcome(n, recs, out.Crashed, out.Steps), nil
}
