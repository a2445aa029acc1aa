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
// is hashed for every checker goldenCheckers lists. The hashes were
// recorded when internal/predicate still had a named constructor for each
// model, with every compiled checker held equal to its named twin by the
// differential sweep; no verdict table is checked in, the hash is the
// fixture.
const (
	goldenExhaustive = "80c5ab4b3168f16d9e5b2edd74d518f81fca7d4ef174c5fc4a6474a54339796f"
	goldenSeeded     = "d5e2782f98397286fe0e93144d9458be1fdd209d65da935503cf0710a10e8057"
)

// goldenCheckers lists every checker the oracle covers, for n processes,
// each distinct expression once: the atoms at the parameters the catalog
// leaves out, every catalog model at F=1, K=2, Stab=1, and eventually(s,
// atom) of every atom. At n = 3 immediate-snapshot is the catalog's own
// model, so it is listed once there.
func goldenCheckers(n int) []predicate.P {
	exprs := []*hoalg.Expr{
		hoalg.SelfTrusting(),
		hoalg.AtMostSuspected(0),
		hoalg.AtMostSuspected(1),
		hoalg.AtMostSuspected(2),
		hoalg.Propagates(),
		hoalg.PerRound(2),
		hoalg.SomeoneSeen(),
		hoalg.NoMutualMiss(),
		hoalg.Chain(),
		hoalg.Immediacy(),
		hoalg.ImmediateSnapshot(3),
		hoalg.NeverSuspected(),
		hoalg.KSetEq3(1),
		hoalg.Identical(),
	}
	for _, m := range hoalg.Catalog() {
		exprs = append(exprs, m.Build(hoalg.Params{N: n, F: 1, K: 2, Stab: 1}))
	}
	atoms := []*hoalg.Expr{
		hoalg.SelfTrusting(), hoalg.AtMostSuspected(1), hoalg.PerRound(1),
		hoalg.KSetEq3(2), hoalg.NoMutualMiss(), hoalg.SomeoneSeen(),
		hoalg.Identical(), hoalg.Chain(), hoalg.Immediacy(),
		hoalg.Propagates(), hoalg.NeverSuspected(), hoalg.BSys(1, 2),
	}
	for _, a := range atoms {
		for s := 1; s <= 2; s++ {
			exprs = append(exprs, hoalg.Eventually(s, a))
		}
	}
	var ps []predicate.P
	listed := make(map[string]bool, len(exprs))
	for _, e := range exprs {
		if s := e.String(); !listed[s] {
			listed[s] = true
			ps = append(ps, e.Compile())
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
		fmt.Fprintf(h, "%s|%d|%d|%s|%v\n", v.Predicate, v.Round, v.Proc, v.Detail(), err)
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
