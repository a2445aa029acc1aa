package task_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/mc"
	"repro/internal/predicate"
	"repro/internal/recovery"
	"repro/internal/serve"
	. "repro/internal/task"
)

// all reads a slice in which every index decided.
func all[V any](vals []V) func(int) (V, bool) {
	return func(i int) (V, bool) { return vals[i], true }
}

// violation returns a verdict's clause and offender index, or "" and 0
// when it holds.
func violation[V comparable](vd Verdict[V]) (string, int) {
	err := vd.Err()
	if err == nil {
		return "", 0
	}
	v := err.(*Violation)
	return v.Clause, v.Index
}

// ksetCases runs the relation's corner cases at one value type; of maps
// small integers into it.
func ksetCases[V comparable](t *testing.T, of func(int) V) {
	vals := func(xs ...int) []V {
		out := make([]V, len(xs))
		for i, x := range xs {
			out[i] = of(x)
		}
		return out
	}
	none := func(int) bool { return false }
	expect := func(t *testing.T, vd Verdict[V], clause string, index int) {
		t.Helper()
		if c, i := violation(vd); c != clause || i != index {
			t.Fatalf("verdict %+v: violation (%q, %d), want (%q, %d)", vd, c, i, clause, index)
		}
	}

	t.Run("empty decided set", func(t *testing.T) {
		nobody := func(int) (V, bool) { return of(0), false }
		vd := KSet(1, Inputs(vals(0, 1, 2)), 3, nobody, func(i int) bool { return i == 1 })
		expect(t, vd, "termination", 0)
		if len(vd.Distinct) != 0 || vd.Excess {
			t.Fatalf("nobody decided, got %+v", vd)
		}
		if vd := KSet(1, Inputs(vals(0, 1, 2)), 3, nobody, nil); vd.Err() != nil {
			t.Fatalf("no termination clause asked, got %v", vd.Err())
		}
	})
	t.Run("k >= n never binds", func(t *testing.T) {
		decided := vals(2, 0, 1)
		for k := 3; k <= 5; k++ {
			vd := KSet(k, Inputs(vals(0, 1, 2)), 3, all(decided), none)
			if vd.Excess || vd.Err() != nil {
				t.Fatalf("k=%d: %+v", k, vd)
			}
			if !reflect.DeepEqual(vd.Distinct, decided) {
				t.Fatalf("Distinct %v, want first-seen order %v", vd.Distinct, decided)
			}
		}
		vd := KSet(2, nil, 3, all(decided), nil)
		if !vd.Excess || len(vd.Distinct) != 3 {
			t.Fatalf("k=2 over three values: %+v", vd)
		}
		expect(t, vd, "k-agreement", -1)
	})
	t.Run("duplicate inputs", func(t *testing.T) {
		vd := KSet(1, Inputs(vals(7, 7, 7, 7)), 4, all(vals(7, 7, 7, 7)), none)
		if vd.Err() != nil || !reflect.DeepEqual(vd.Distinct, vals(7)) {
			t.Fatalf("unanimous execution: %+v", vd)
		}
		// Validity leads k-agreement, and names the lowest offender.
		vd = KSet(1, Inputs(vals(7, 7, 7, 7)), 4, all(vals(7, 8, 7, 9)), none)
		if !vd.Excess || !reflect.DeepEqual(vd.Distinct, vals(7, 8, 9)) {
			t.Fatalf("verdict %+v", vd)
		}
		expect(t, vd, "validity", 1)
		if got, want := vd.Err().Error(), fmt.Sprintf("decided %v, not an input", of(8)); got != want {
			t.Fatalf("Error() = %q, want %q", got, want)
		}
	})
	t.Run("valid in one instance only", func(t *testing.T) {
		// serve's shape: the decided values of one instance, ascending,
		// against that instance's submissions.
		submitted := map[string][]V{"a": vals(1, 2), "b": vals(2, 3)}
		decided := vals(1, 2)
		if vd := KSet(2, Inputs(submitted["a"]), 2, all(decided), nil); vd.Err() != nil {
			t.Fatalf("instance a: %v", vd.Err())
		}
		expect(t, KSet(2, Inputs(submitted["b"]), 2, all(decided), nil), "validity", 0)
		expect(t, KSet(2, Inputs(submitted["c"]), 2, all(decided), nil), "validity", 0)
	})
	t.Run("crashed exempt from termination", func(t *testing.T) {
		decided := func(i int) (V, bool) { return of(0), i == 0 }
		vd := KSet(1, Inputs(vals(0, 1, 2, 3)), 4, decided, In(core.SetOf(4, 1, 3)))
		expect(t, vd, "termination", 2)
		if got := vd.Err().Error(); got != "did not decide" {
			t.Fatalf("Error() = %q", got)
		}
	})
}

func TestKSetAtEachValueType(t *testing.T) {
	t.Run("core.Value", func(t *testing.T) { ksetCases(t, func(x int) core.Value { return x }) })
	t.Run("int", func(t *testing.T) { ksetCases(t, func(x int) int { return x }) })
	t.Run("int64", func(t *testing.T) { ksetCases(t, func(x int) int64 { return int64(x) << 40 }) })
}

// TestAuditsAgreeOnOneRoundKSet: on every one-round trace over three
// processes, the engine-result audit, the task and the mc properties
// accept exactly the same OneRoundKSet executions.
func TestAuditsAgreeOnOneRoundKSet(t *testing.T) {
	const n = 3
	inputs := identityInputs(n)
	for k := 1; k <= n; k++ {
		props := []mc.Property{mc.Validity(inputs), mc.KAgreement(k)}
		accepted, traces := 0, 0
		err := predicate.ExhaustiveTraces(n, 1, func(tr *core.Trace) error {
			res, err := core.Run(n, inputs, agreement.OneRoundKSet(), core.TraceOracle(tr), core.WithoutTrace())
			if err != nil {
				return err
			}
			traces++
			byValidate := agreement.Validate(res, inputs, k, 0) == nil
			byTask := KSet(k, Inputs(inputs), n, ByPID(res.Outputs), In(res.Crashed)).Err() == nil
			byMC := true
			for _, p := range props {
				byMC = byMC && p.Check(res) == nil
			}
			if byValidate != byTask || byTask != byMC {
				return fmt.Errorf("k=%d outputs %v: Validate accepts=%t, task=%t, mc=%t", k, res.Outputs, byValidate, byTask, byMC)
			}
			if byTask {
				accepted++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if traces != 343 || accepted == 0 || (k < n && accepted == traces) {
			t.Fatalf("k=%d: %d of %d traces accepted: the comparison is vacuous", k, accepted, traces)
		}
	}
}

// TestAuditsNameTheLowestOffender: every auditor, handed an execution with
// two invalid deciders or with k+2 distinct values, carries the verdict's
// one sentence — the lowest offender's value, the distinct values first
// seen first — and a Violation whose Index is the lowest offender, every
// time, not whichever a map yields first.
func TestAuditsNameTheLowestOffender(t *testing.T) {
	const n, f, k = 5, 1, 2
	inputs := identityInputs(n)
	twoInvalid := map[core.PID]core.Value{0: 0, 1: 0, 2: 77, 3: 0, 4: 88}
	tooMany := map[core.PID]core.Value{0: 3, 1: 2, 2: 1, 3: 0, 4: 0}
	const invalid, excess = "decided 77, not an input", "4 distinct decisions [3 2 1 0] exceed k=2"
	result := func(out map[core.PID]core.Value) *core.Result {
		at := make(map[core.PID]int, n)
		for p := range out {
			at[p] = 1
		}
		return &core.Result{Outputs: out, DecidedAt: at, Crashed: core.NewSet(n)}
	}
	graded := func(out map[core.PID]core.Value) map[core.PID]core.Value {
		g := make(map[core.PID]core.Value, n)
		for p, v := range out {
			g[p] = GradedValue{Value: v}
		}
		return g
	}
	recovered := func(decisions map[core.PID]core.Value) *recovery.Outcome {
		out, err := recovery.RunRounds(n, f, 2, recovery.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for p, v := range decisions {
			out.Decisions[p] = v.(int)
		}
		return out
	}
	fleetCfg := fleet.Config{Instances: 4, Procs: n, F: f, BaseRounds: 2, Seed: 42}
	fleetRes, err := fleet.Run(fleetCfg)
	if err != nil {
		t.Fatal(err)
	}
	fleetRes.Values[2*n+2] = 77 // instance 2: processes 2 and 4 hold no input
	fleetRes.Values[2*n+4] = 88
	auditor := serve.NewAuditor()
	for _, v := range []int{88, 0, 77} {
		auditor.Note("i", "", v)
	}
	served := func() error {
		vs := auditor.Violations(map[string]map[int]bool{"i": {0: true}}, n)
		if len(vs) != 1 {
			return fmt.Errorf("%d violations %+v, want one", len(vs), vs)
		}
		return vs[0].Err
	}

	for _, tc := range []struct {
		name  string
		audit func() error
		want  string
		index int // the lowest offender: a process, or serve's value rank
	}{
		{"task.AdoptCommit validity", func() error {
			return AdoptCommit(Assignment{Inputs: inputs, Outputs: graded(twoInvalid), Crashed: core.NewSet(n)})
		}, invalid, 2},
		{"agreement.Validate validity", func() error { return agreement.Validate(result(twoInvalid), inputs, k, 0) }, invalid, 2},
		{"agreement.Validate k-agreement", func() error { return agreement.Validate(result(tooMany), inputs, k, 0) }, excess, -1},
		{"mc.Validity", func() error { return mc.Validity(inputs).Check(result(twoInvalid)) }, invalid, 2},
		{"mc.KAgreement", func() error { return mc.KAgreement(k).Check(result(tooMany)) }, excess, -1},
		{"recovery.Audit validity", func() error { return recovery.Audit(recovered(twoInvalid), n, f, 2) }, invalid, 2},
		{"recovery.Audit k-agreement", func() error { return recovery.Audit(recovered(tooMany), n, f, 2) }, excess, -1},
		{"fleet.Audit validity", func() error { return fleet.Audit(fleetCfg, fleetRes) }, invalid, 2},
		{"serve.Auditor validity", served, invalid, 1},
	} {
		for i := 0; i < 50; i++ {
			err := tc.audit()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s, iteration %d:\n got %v\nwant it to contain %s", tc.name, i, err, tc.want)
				break
			}
			var v *Violation
			var ae *recovery.AuditError
			switch {
			case errors.As(err, &v):
			case errors.As(err, &ae):
				v = &Violation{Index: int(ae.Proc)}
			default:
				t.Fatalf("%s: %T carries no offender index", tc.name, err)
			}
			if v.Index != tc.index {
				t.Errorf("%s, iteration %d: Index %d, want %d", tc.name, i, v.Index, tc.index)
				break
			}
		}
	}
	if err := AdoptCommit(Assignment{Inputs: inputs, Outputs: map[core.PID]core.Value{3: 1}, Crashed: core.NewSet(n)}); err == nil ||
		!strings.Contains(err.Error(), "process 3 output int") {
		t.Errorf("adopt-commit must reject an ungraded output, got %v", err)
	}
}
