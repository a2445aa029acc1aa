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
			// A scan that misses more than f round-r values is retried, so
			// only the deciding one builds the suspect set and the messages.
			for {
				view, err := obj.Scan()
				if err != nil {
					return nil, core.Set{}, err
				}
				missing := n
				for _, c := range view {
					if cell, ok := c.Value.(roundCell); ok && cell.round >= r {
						missing--
					}
				}
				if missing > f {
					continue
				}
				suspects := core.NewSet(n)
				msgs := make(map[core.PID]core.Value, n-missing)
				for j, c := range view {
					if cell, ok := c.Value.(roundCell); ok && cell.round >= r {
						msgs[core.PID(j)] = cell.values[r-1]
					} else {
						suspects.Add(core.PID(j))
					}
				}
				return msgs, suspects, nil
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
