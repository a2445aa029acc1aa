package simulate

import (
	"errors"
	"fmt"

	"repro/internal/adoptcommit"
	"repro/internal/core"
	"repro/internal/snapshot"
	"repro/internal/swmr"
)

// CrashSyncResult reports a Theorem 4.3 simulation run.
type CrashSyncResult struct {
	// Result carries the simulated algorithm's outputs, decision rounds
	// and the induced synchronous trace; Result.Crashed is the set of
	// processes that appear crashed in the SIMULATED execution (really
	// crashed, or committed faulty by everyone including themselves).
	Result *core.Result

	// Adopted maps processes whose simulation ended "I crashed" but which
	// adopted a live process's decision afterwards (the Corollary 4.4
	// final step) to that adopted value. These do not appear in
	// Result.Outputs.
	Adopted map[core.PID]core.Value

	// RealCrashes is the set of processes crashed by the scheduler.
	RealCrashes core.Set

	// Steps is the total number of register operations scheduled —
	// the asynchronous cost of the simulation.
	Steps int
}

// aliveProposal is the adopt-commit input "p_j-alive" carrying j's value.
type aliveProposal struct {
	value core.Value
}

// faultyProposal is the adopt-commit input "p_j-faulty".
type faultyProposal struct{}

// decision is written to the shared decision board.
type decision struct {
	value core.Value
}

// errSelfCrashed signals that the simulation committed the running process
// itself faulty ("I crashed").
var errSelfCrashed = errors.New("simulate: simulated self-crash")

// CrashSync is Theorem 4.3: it runs a synchronous crash-model round
// algorithm for rounds = ⌊f/k⌋ simulated rounds on the asynchronous
// shared-memory substrate with at most k real crash failures. Each
// simulated round costs one snapshot round plus n parallel adopt-commit
// protocols (the paper's three asynchronous rounds).
//
// Per simulated round r, process p_i:
//
//  1. writes its simulated round-r message and scans until it misses at
//     most k processes; the missed set M_i joins its proposed-faulty set F_i
//     (snapshot containment keeps |⋃M_i| ≤ k, so at most k new processes
//     join ⋃F_i per round — at most f over ⌊f/k⌋ rounds);
//  2. runs an adopt-commit per process j, proposing "p_j-faulty" if j ∈ F_i
//     and "p_j-alive"+value otherwise;
//  3. takes D(i,r) = { j : p_i COMMITTED p_j-faulty }; adopting p_j-faulty
//     only adds j to F_i — j's round-r value is still delivered, recovered
//     from an alive proposal (one always exists in that case, which the
//     implementation checks);
//  4. if p_i committed itself faulty it outputs "I crashed": it keeps
//     taking asynchronous steps (so survivors never block) but its
//     simulated execution ends, and it later adopts a decision from the
//     shared board.
//
// The induced trace satisfies the synchronous crash predicate (eqs. 1+2
// with budget f) — a process appears to fail at round r only when someone
// commits it faulty, in which case everyone commits it faulty from round
// r+1 on.
func CrashSync(n, f, k, rounds int, cfg swmr.Config, factory core.Factory, inputs []core.Value) (*CrashSyncResult, error) {
	if n <= 0 || len(inputs) != n {
		return nil, fmt.Errorf("simulate: %d inputs for %d processes", len(inputs), n)
	}
	if k <= 0 || f < k {
		return nil, fmt.Errorf("simulate: need f ≥ k > 0, got f=%d k=%d", f, k)
	}
	if rounds <= 0 {
		rounds = f / k
	}
	if rounds > f/k {
		return nil, fmt.Errorf("simulate: %d rounds exceed the Theorem 4.3 budget ⌊f/k⌋ = %d", rounds, f/k)
	}
	if len(cfg.Crash) > k {
		return nil, fmt.Errorf("simulate: %d real crashes exceed k=%d", len(cfg.Crash), k)
	}

	type procRecord struct {
		sim       core.RoundRec // D(i,r) for each completed simulated round
		out       core.Value
		decidedAt int
		selfCrash int // simulated round of "I crashed", 0 if none
		adopted   core.Value
		hasAdopt  bool
	}
	recs := make([]*procRecord, n)

	body := func(p *swmr.Proc) (core.Value, error) {
		rec := &procRecord{}
		recs[p.Me] = rec
		alg := factory(p.Me, n, inputs[p.Me])
		obj := snapshot.New(p, "sim")
		faulty := core.NewSet(n)
		var history []core.Value
		decided := false
		zombie := false

		for r := 1; r <= rounds; r++ {
			history = append(history, alg.Emit(r))
			if err := obj.Update(simCell{round: r, values: history}); err != nil {
				return nil, err
			}
			// Scan until at most k round-r values are missing.
			var values []core.Value
			var missed core.Set
			for {
				view, err := obj.Scan()
				if err != nil {
					return nil, err
				}
				present := core.NewSet(n)
				vals := make([]core.Value, n)
				for j, c := range view {
					cell, ok := c.Value.(simCell)
					if !ok || cell.round < r {
						continue
					}
					present.Add(core.PID(j))
					vals[j] = cell.values[r-1]
				}
				if n-present.Count() <= k {
					values, missed = vals, present.Complement()
					break
				}
			}
			faulty = faulty.Union(missed)

			// One adopt-commit per process; the instance name binds the
			// simulated round so instances never collide.
			committed := core.NewSet(n)
			msgs := make([]core.Message, n)
			for j := 0; j < n; j++ {
				pj := core.PID(j)
				name := fmt.Sprintf("sim:r%d:j%d", r, j)
				var proposal core.Value
				if faulty.Has(pj) {
					proposal = faultyProposal{}
				} else {
					proposal = aliveProposal{value: values[j]}
				}
				out, err := adoptcommit.Run(p, name, proposal)
				if err != nil {
					return nil, err
				}
				switch v := out.Value.(type) {
				case aliveProposal:
					msgs[pj] = v.value
				case faultyProposal:
					faulty.Add(pj)
					if out.Grade == adoptcommit.Commit {
						committed.Add(pj)
						continue
					}
					// Adopted faulty: j's value is still delivered this
					// round; an alive proposal must exist — recover it.
					val, err := recoverAlive(p, name)
					if err != nil {
						return nil, err
					}
					msgs[pj] = val
				default:
					return nil, fmt.Errorf("simulate: foreign proposal %T", out.Value)
				}
			}

			if zombie {
				continue // keep the substrate moving, simulation is over
			}
			if committed.Has(p.Me) {
				rec.selfCrash = r
				zombie = true
				continue
			}
			rec.sim.Complete(r, nil, committed)
			if !decided {
				out, dec := alg.Deliver(r, core.NewInbox(committed.Complement(), msgs), committed)
				if dec {
					decided = true
					rec.out, rec.decidedAt = out, r
					if err := p.Write("decision", decision{value: out}); err != nil {
						return nil, err
					}
				}
			}
		}

		if zombie || !decided {
			// "I crashed" (or the algorithm needs more rounds than the
			// budget): adopt any posted decision, as in Corollary 4.4.
			board := make([]core.Value, n)
			for {
				if err := p.Collect("decision", board); err != nil {
					return nil, err
				}
				found := false
				for _, b := range board {
					if d, ok := b.(decision); ok {
						rec.adopted, rec.hasAdopt = d.value, true
						found = true
						break
					}
				}
				if found || !zombie {
					break
				}
				// A zombie waits for a live decision; a merely undecided
				// process gives up immediately (its algorithm simply ran
				// out of rounds).
			}
		}
		return nil, nil
	}

	out, err := swmr.Run(n, cfg, body)
	if err != nil {
		return nil, err
	}
	for pid, procErr := range out.Errs {
		if !errors.Is(procErr, swmr.ErrCrashed) {
			return nil, fmt.Errorf("simulate: process %d: %w", pid, procErr)
		}
	}

	res := &CrashSyncResult{
		Result: &core.Result{
			Outputs:   make(map[core.PID]core.Value),
			DecidedAt: make(map[core.PID]int),
			Rounds:    rounds,
			Crashed:   core.NewSet(n),
		},
		Adopted:     make(map[core.PID]core.Value),
		RealCrashes: out.Crashed,
		Steps:       out.Steps,
	}
	simRecs := make([]*core.RoundRec, n)
	for i := 0; i < n; i++ {
		if recs[i] == nil {
			recs[i] = &procRecord{}
		}
		pid := core.PID(i)
		simRecs[i] = &recs[i].sim
		if recs[i].decidedAt > 0 {
			res.Result.Outputs[pid] = recs[i].out
			res.Result.DecidedAt[pid] = recs[i].decidedAt
		}
		if recs[i].hasAdopt {
			res.Adopted[pid] = recs[i].adopted
		}
		if out.Crashed.Has(pid) || recs[i].selfCrash > 0 {
			res.Result.Crashed.Add(pid)
		}
	}
	res.Result.Trace = core.InducedTrace(n, simRecs, res.Result.Crashed)
	return res, nil
}

// simCell is the snapshot payload: the owner's simulated messages so far.
type simCell struct {
	round  int
	values []core.Value
}

// recoverAlive re-collects the proposals of an adopt-commit instance and
// returns the value of any alive proposal. When a process adopts (without
// committing) a faulty verdict, some process proposed alive before the
// adopting process finished — so this always succeeds; failure would be a
// counterexample to the Theorem 4.3 argument and is surfaced loudly.
func recoverAlive(p *swmr.Proc, name string) (core.Value, error) {
	props, err := adoptcommit.CollectProposals(p, name)
	if err != nil {
		return nil, err
	}
	for _, prop := range props {
		if a, ok := prop.(aliveProposal); ok {
			return a.value, nil
		}
	}
	return nil, fmt.Errorf("simulate: adopted faulty verdict in %s with no recoverable alive proposal", name)
}
