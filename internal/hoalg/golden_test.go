package hoalg_test

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/hoalg"
	"repro/internal/predicate"
)

// The verdict oracle. One line per (checker, trace) — the violation's
// Predicate, Round, Proc and Detail plus the wrapped error text, or "ok" —
// is hashed for every named predicate constructor, every catalog model's
// compiled checker and eventually(s, atom) of every atom. The hashes were
// recorded with the hand-written checkers of internal/predicate and their
// windowed twins in hoalg/checker.go still in place (the commit before the
// atom table); no verdict table is checked in, the hash is the fixture.
const (
	goldenExhaustive = "dbe592e9f4bf9b30eae46133772778ccc84d1e2ee18fcda7cb87c38db3534e3a"
	goldenSeeded     = "1a7500e68c76f055cc8608c195a308ede0adc49acd860e85c3c772b7cabbc2d1"
)

// goldenCheckers lists every checker the oracle covers, for n processes.
func goldenCheckers(n int) []predicate.P {
	ps := []predicate.P{
		predicate.SelfTrusting(),
		predicate.TotalSuspectBudget(0),
		predicate.TotalSuspectBudget(1),
		predicate.TotalSuspectBudget(2),
		predicate.SendOmission(1),
		predicate.SuspicionPropagates(),
		predicate.SyncCrash(1),
		predicate.PerRoundBudget(1),
		predicate.PerRoundBudget(2),
		predicate.SomeoneSeenByAll(),
		predicate.SharedMemory(1),
		predicate.NoMutualMiss(),
		predicate.SelfIncluded(),
		predicate.ContainmentChain(),
		predicate.Immediacy(),
		predicate.ImmediateSnapshot(3),
		predicate.AtomicSnapshot(1),
		predicate.NeverSuspectedExists(),
		predicate.EventuallyNeverSuspected(1),
		predicate.EventuallyNeverSuspected(2),
		predicate.KSetDetector(1),
		predicate.KSetDetector(2),
		predicate.IdenticalSuspects(),
		predicate.BSystem(1, 2),
	}
	for _, m := range hoalg.Catalog() {
		ps = append(ps, m.Build(hoalg.Params{N: n, F: 1, K: 2, Stab: 1}).Compile())
	}
	atoms := []*hoalg.Expr{
		hoalg.SelfTrusting(), hoalg.AtMostSuspected(1), hoalg.PerRound(1),
		hoalg.KSetEq3(2), hoalg.NoMutualMiss(), hoalg.SomeoneSeen(),
		hoalg.Identical(), hoalg.Chain(), hoalg.Immediacy(),
		hoalg.Propagates(), hoalg.NeverSuspected(), hoalg.BSys(1, 2),
	}
	for _, a := range atoms {
		for s := 1; s <= 2; s++ {
			ps = append(ps, hoalg.Eventually(s, a).Compile())
		}
	}
	return ps
}

// hashVerdicts appends one line per checker for the trace.
func hashVerdicts(h hash.Hash, ps []predicate.P, tr *core.Trace) {
	for _, p := range ps {
		err := p.Check(tr)
		if err == nil {
			h.Write([]byte("ok\n"))
			continue
		}
		var v *predicate.Violation
		if !errors.As(err, &v) {
			fmt.Fprintf(h, "%s: non-violation %v\n", p.Name, err)
			continue
		}
		fmt.Fprintf(h, "%s|%d|%d|%s|%v\n", v.Predicate, v.Round, v.Proc, v.Detail, err)
	}
}

// TestGoldenVerdicts pins every checker's verdict, attribution and detail
// text: over the full crash-free trace space at n = 3, 2 rounds (skipped
// under -short), and over 2 000 seeded traces with shrinking Active sets
// and self-suspicions at n = 4 and 5.
func TestGoldenVerdicts(t *testing.T) {
	t.Run("seeded", func(t *testing.T) {
		h := sha256.New()
		for _, n := range []int{4, 5} {
			ps := goldenCheckers(n)
			for seed := int64(0); seed < 1000; seed++ {
				rng := rand.New(rand.NewSource(seed))
				hashVerdicts(h, ps, hoalg.RandomTrace(rng, n, 4))
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != goldenSeeded {
			t.Fatalf("seeded verdict hash %s, want %s", got, goldenSeeded)
		}
	})
	t.Run("exhaustive", func(t *testing.T) {
		if testing.Short() {
			t.Skip("exhaustive verdict sweep")
		}
		h := sha256.New()
		ps := goldenCheckers(3)
		if err := predicate.ExhaustiveTraces(3, 2, func(tr *core.Trace) error {
			hashVerdicts(h, ps, tr)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != goldenExhaustive {
			t.Fatalf("exhaustive verdict hash %s, want %s", got, goldenExhaustive)
		}
	})
}
