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

	t.Run("empty decided set", func(t *testing.T) {
		nobody := func(int) (V, bool) { return of(0), false }
		vd := KSet(1, Inputs(vals(0, 1, 2)), 3, nobody, func(i int) bool { return i == 1 })
		want := Verdict[V]{Undecided: []int{0, 2}}
		if !reflect.DeepEqual(vd, want) {
			t.Fatalf("verdict %+v, want %+v", vd, want)
		}
		if vd := KSet(1, Inputs(vals(0, 1, 2)), 3, nobody, nil); !reflect.DeepEqual(vd, Verdict[V]{}) {
			t.Fatalf("no termination clause asked, got %+v", vd)
		}
	})
	t.Run("k >= n never binds", func(t *testing.T) {
		decided := vals(2, 0, 1)
		for k := 3; k <= 5; k++ {
			vd := KSet(k, Inputs(vals(0, 1, 2)), 3, all(decided), none)
			if vd.Excess || len(vd.Invalid) > 0 || len(vd.Undecided) > 0 {
				t.Fatalf("k=%d: %+v", k, vd)
			}
			if !reflect.DeepEqual(vd.Distinct, decided) {
				t.Fatalf("Distinct %v, want first-seen order %v", vd.Distinct, decided)
			}
		}
		if vd := KSet(2, nil, 3, all(decided), nil); !vd.Excess || len(vd.Distinct) != 3 {
			t.Fatalf("k=2 over three values: %+v", vd)
		}
	})
	t.Run("duplicate inputs", func(t *testing.T) {
		vd := KSet(1, Inputs(vals(7, 7, 7, 7)), 4, all(vals(7, 7, 7, 7)), none)
		if !reflect.DeepEqual(vd, Verdict[V]{Distinct: vals(7)}) {
			t.Fatalf("unanimous execution: %+v", vd)
		}
		vd = KSet(1, Inputs(vals(7, 7, 7, 7)), 4, all(vals(7, 8, 7, 9)), none)
		want := Verdict[V]{Invalid: []Offender[V]{{1, of(8)}, {3, of(9)}}, Distinct: vals(7, 8, 9), Excess: true}
		if !reflect.DeepEqual(vd, want) {
			t.Fatalf("verdict %+v, want %+v", vd, want)
		}
	})
	t.Run("valid in one instance only", func(t *testing.T) {
		// serve's shape: the decided values of one instance, ascending,
		// against that instance's submissions.
		submitted := map[string][]V{"a": vals(1, 2), "b": vals(2, 3)}
		decided := vals(1, 2)
		if vd := KSet(2, Inputs(submitted["a"]), 2, all(decided), nil); len(vd.Invalid) != 0 {
			t.Fatalf("instance a: %+v", vd)
		}
		vd := KSet(2, Inputs(submitted["b"]), 2, all(decided), nil)
		if want := []Offender[V]{{0, of(1)}}; !reflect.DeepEqual(vd.Invalid, want) {
			t.Fatalf("instance b: Invalid %+v, want %+v", vd.Invalid, want)
		}
		if vd := KSet(2, Inputs(submitted["c"]), 2, all(decided), nil); len(vd.Invalid) != 2 {
			t.Fatalf("an instance nobody submitted to has no valid value: %+v", vd)
		}
	})
	t.Run("crashed exempt from termination", func(t *testing.T) {
		decided := func(i int) (V, bool) { return of(0), i == 0 }
		vd := KSet(1, Inputs(vals(0, 1, 2, 3)), 4, decided, In(core.SetOf(4, 1, 3)))
		if want := []int{2}; !reflect.DeepEqual(vd.Undecided, want) {
			t.Fatalf("Undecided %v, want %v", vd.Undecided, want)
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
			byTask := KSetAgreement(k).Check(Assignment{Inputs: inputs, Outputs: res.Outputs, Crashed: res.Crashed}) == nil
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
// two invalid deciders or with k+2 distinct values, names the lowest
// process and lists values ascending — every time, not whichever a map
// yields first.
func TestAuditsNameTheLowestOffender(t *testing.T) {
	const n, f, k = 5, 1, 2
	inputs := identityInputs(n)
	twoInvalid := map[core.PID]core.Value{0: 0, 1: 0, 2: 77, 3: 0, 4: 88}
	tooMany := map[core.PID]core.Value{0: 3, 1: 2, 2: 1, 3: 0, 4: 0}
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
	fleetRes.Values[2*n+2]-- // instance 2: processes 2 and 4 hold no input
	fleetRes.Values[2*n+4]--
	auditor := serve.NewAuditor()
	for _, v := range []int{9, 3, 7, 5} {
		auditor.Note("i", "", v)
	}

	for _, tc := range []struct {
		name  string
		audit func() error
		want  string
	}{
		{"task.KSetAgreement validity", func() error {
			return KSetAgreement(k).Check(Assignment{Inputs: inputs, Outputs: twoInvalid, Crashed: core.NewSet(n)})
		}, "task 2-set agreement: process 2 decided 77, not an input"},
		{"task.AdoptCommit validity", func() error {
			return AdoptCommit().Check(Assignment{Inputs: inputs, Outputs: graded(twoInvalid), Crashed: core.NewSet(n)})
		}, "adopt-commit: process 2 carries non-input 77"},
		{"agreement.Validate validity", func() error { return agreement.Validate(result(twoInvalid), inputs, n, 0) },
			"agreement: process 2 decided 77, not an input"},
		{"agreement.Validate k-agreement", func() error { return agreement.Validate(result(tooMany), inputs, k, 0) },
			"agreement: 4 distinct outputs, want ≤ 2 (outputs map[0:3 1:2 2:1 3:0 4:0])"},
		{"mc.Validity", func() error { return mc.Validity(inputs).Check(result(twoInvalid)) },
			"process 2 decided 77, not any input"},
		{"mc.KAgreement", func() error { return mc.KAgreement(k).Check(result(tooMany)) },
			"4 distinct decisions, want <= 2"},
		{"recovery.Audit validity", func() error { return recovery.Audit(recovered(twoInvalid), n, f, 2) },
			"recovery audit: validity violation at p2: decided 77, not a proposal"},
		{"recovery.Audit k-agreement", func() error { return recovery.Audit(recovered(tooMany), n, f, 2) },
			"recovery audit: k-agreement violation: 4 distinct decisions [0 1 2 3] exceed k=f+1=2"},
		{"fleet.Audit validity", func() error { return fleet.Audit(fleetCfg, fleetRes) },
			fmt.Sprintf("fleet: instance 2 process 2 decided %d, not any input", fleetRes.Values[2*n+2])},
		{"serve.Auditor", func() error {
			return errors.New(fmt.Sprint(auditor.Violations(map[string]map[int]bool{"i": {5: true}}, k)))
		}, "[{k-agreement i  [3 5 7 9]} {validity i  [3]} {validity i  [7]} {validity i  [9]}]"},
	} {
		for i := 0; i < 50; i++ {
			if err := tc.audit(); err == nil || err.Error() != tc.want {
				t.Errorf("%s, iteration %d:\n got %v\nwant %s", tc.name, i, err, tc.want)
				break
			}
		}
	}
	if err := AdoptCommit().Check(Assignment{Inputs: inputs, Outputs: map[core.PID]core.Value{3: 1}, Crashed: core.NewSet(n)}); err == nil ||
		!strings.Contains(err.Error(), "process 3 output int") {
		t.Errorf("adopt-commit must reject an ungraded output, got %v", err)
	}
}
