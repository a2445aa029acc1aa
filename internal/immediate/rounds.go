package immediate

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/swmr"
)

// RunRounds executes rounds rounds of the iterated immediate snapshot:
// core.RunRounds with the wait-free exchange — one fresh one-shot object
// per round, each process participating with its round emission; D(i,r)
// is the complement of its view. The induced RRFD trace satisfies the
// item 5 snapshot predicate with budget n−1 PLUS immediacy — the strict
// strengthening the E-series lattice records.
func RunRounds(n, rounds int, cfg swmr.Config, emit core.RoundEmit) (*core.RoundOutcome, error) {
	if err := core.CheckShape(n, n-1, rounds); err != nil {
		return nil, err
	}
	recs := make([]*core.RoundRec, n)
	out, err := swmr.Run(n, cfg, func(p *swmr.Proc) (core.Value, error) {
		rec, err := core.RunRounds(p.Me, n, rounds, emit, func(r int, v core.Value) (map[core.PID]core.Value, core.Set, error) {
			view, err := New(p, fmt.Sprintf("r%d", r)).Participate(v)
			if err != nil {
				return nil, core.Set{}, err
			}
			return view.Values, view.Members.Complement(), nil
		})
		recs[p.Me] = rec
		return nil, err
	})
	if err != nil {
		return nil, err
	}
	return core.AssembleRoundOutcome(n, recs, out.Crashed, out.Steps), nil
}
