package hoalg

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faultnet"
)

// Walk is one path through a model's per-round plan family: each round
// Plans lists what the enumerator admits from the suspicion history so far,
// the caller picks one of them, and Follow folds the pick into the history.
// Who picks is the only difference between a sampled run (Expr.Oracle: an
// RNG) and an explored one (adversary.Enumerated: mc.Ctx.ChooseLabeled), so
// a model's sampler and its exhaustive enumerator cannot disagree.
//
// The state handed to the enumerator aliases the walk's own history (nothing
// is cloned per round) and the listed plans are the enumerator's own: a
// compiled Enum memoises its lists, so one enum shared by every schedule of
// an exploration expands each state once.
type Walk struct {
	n         int
	enum      Enum
	suspected core.Set
	prevUnion core.Set
	unions    []core.Set
	err       error
}

// NewWalk starts a walk over enum's plan family for n processes.
func NewWalk(n int, enum Enum) Walk {
	return Walk{n: n, enum: enum, suspected: core.NewSet(n), prevUnion: core.NewSet(n)}
}

// EmptyFamilyError reports that an enumerator listed no plan at all: the
// model is unsatisfiable from State, so there is no execution past Round.
// It is Walk.Err's value; an exploration returns it as mc.Explore's (or
// mc.Replay's) error.
type EmptyFamilyError struct {
	Round int
	State EnumState
}

// Error implements error.
func (e *EmptyFamilyError) Error() string {
	return fmt.Sprintf("adversary: the model admits no plan in round %d (active=%s suspected=%s prev-round=%s)",
		e.Round, e.State.Active, e.State.Suspected, e.State.PrevUnion)
}

// Plans lists the round-r plans the model admits, which the caller must not
// modify. An empty list means the model is unsatisfiable from here: the walk
// records an *EmptyFamilyError (see Err) and an oracle should return the
// zero core.RoundPlan, which the engine rejects, ending the run.
func (w *Walk) Plans(r int, active core.Set) []core.RoundPlan {
	st := EnumState{R: r, Active: active, Suspected: w.suspected,
		PrevUnion: w.prevUnion, Unions: w.unions}
	plans := w.enum(st)
	if len(plans) == 0 {
		// The error outlives the round: detach it from the engine's live
		// set and from the history this walk updates in place.
		st.Active, st.Suspected = active.Clone(), w.suspected.Clone()
		w.err = &EmptyFamilyError{Round: r, State: st}
	}
	return plans
}

// Follow takes plan, one of the last Plans, as the round's: it folds the
// plan's suspicions into the history and returns it.
func (w *Walk) Follow(plan core.RoundPlan) core.RoundPlan {
	u := core.NewSet(w.n)
	for _, d := range plan.Suspects {
		u.UnionInto(d)
	}
	w.prevUnion = u
	w.suspected.UnionInto(u)
	w.unions = append(w.unions, u)
	return plan
}

// Err returns the *EmptyFamilyError that ended the walk, or nil. A run that
// failed on the zero plan should report Err instead.
func (w *Walk) Err() error { return w.err }

// Fingerprint implements mc.Fingerprinter over the state future plans
// depend on. It covers the cumulative and previous-round unions — enough
// for the window-free model families explored with Mark-based pruning
// (windowed "eventually" expressions are path properties and must be
// explored with Mark off anyway).
func (w *Walk) Fingerprint() uint64 {
	h := uint64(1469598103934665603)
	mix := func(v uint64) { h = (h ^ v) * 1099511628211 }
	w.suspected.ForEach(func(p core.PID) { mix(uint64(p) + 1) })
	mix(0xabcd)
	w.prevUnion.ForEach(func(p core.PID) { mix(uint64(p) + 1) })
	return h
}

// Sampled is a Walk as a core.Oracle whose picker is a seeded RNG.
type Sampled struct {
	Walk
	rng *faultnet.RNG
}

// Plan implements core.Oracle.
func (s *Sampled) Plan(r int, active core.Set) core.RoundPlan {
	plans := s.Plans(r, active)
	if len(plans) == 0 {
		return core.RoundPlan{}
	}
	return s.Follow(plans[s.rng.Intn(len(plans))])
}

// Oracle samples one path the model allows. For a disjunction, one branch is
// drawn up front and followed for the whole run, so the produced trace
// satisfies that branch (and hence the disjunction). This is the plain-run
// counterpart of the exhaustive mc exploration: same plan families, one
// sampled path.
func (e *Expr) Oracle(n int, seed int64) (*Sampled, error) {
	branches, err := e.EnumBranches(n)
	if err != nil {
		return nil, err
	}
	rng := faultnet.NewRNG(seed)
	b := branches[rng.Intn(len(branches))]
	return &Sampled{Walk: NewWalk(n, b.Enum), rng: rng}, nil
}
