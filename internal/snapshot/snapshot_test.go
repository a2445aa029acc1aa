package snapshot

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mc"
	"repro/internal/swmr"
)

// runScanners runs n processes that each perform updates ops Updates
// interleaved with scans, and returns every scan's sequence vector.
func runScanners(t *testing.T, n, updates int, seed int64) [][]int {
	t.Helper()
	var mu sync.Mutex
	var vectors [][]int
	_, err := swmr.Run(n, swmr.Config{Chooser: swmr.Seeded(seed)}, func(p *swmr.Proc) (core.Value, error) {
		obj := New(p, "obj")
		for u := 0; u < updates; u++ {
			if err := obj.Update(int(p.Me)*100 + u); err != nil {
				return nil, err
			}
			view, err := obj.Scan()
			if err != nil {
				return nil, err
			}
			mu.Lock()
			vectors = append(vectors, SeqVector(view))
			mu.Unlock()
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return vectors
}

func TestScanBasic(t *testing.T) {
	out, err := swmr.Run(2, swmr.Config{}, func(p *swmr.Proc) (core.Value, error) {
		obj := New(p, "obj")
		if err := obj.Update(int(p.Me) + 1); err != nil {
			return nil, err
		}
		// Scan until both components are visible.
		for {
			view, err := obj.Scan()
			if err != nil {
				return nil, err
			}
			if view[0].Seq > 0 && view[1].Seq > 0 {
				return []core.Value{view[0].Value, view[1].Value}, nil
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for p, v := range out.Values {
		vals := v.([]core.Value)
		if vals[0] != 1 || vals[1] != 2 {
			t.Fatalf("process %d saw %v", p, vals)
		}
	}
}

func TestScansAreTotallyOrdered(t *testing.T) {
	// Linearizability of snapshots: every pair of scans anywhere in the
	// execution must be comparable component-wise.
	for seed := int64(0); seed < 25; seed++ {
		vectors := runScanners(t, 4, 3, seed)
		for i := 0; i < len(vectors); i++ {
			for j := i + 1; j < len(vectors); j++ {
				if _, err := CompareSeqVectors(vectors[i], vectors[j]); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		}
	}
}

func TestScanSelfInclusion(t *testing.T) {
	// After my Update completes, my own component must appear in my scan.
	_, err := swmr.Run(3, swmr.Config{Chooser: swmr.Seeded(9)}, func(p *swmr.Proc) (core.Value, error) {
		obj := New(p, "obj")
		for u := 1; u <= 3; u++ {
			if err := obj.Update(u); err != nil {
				return nil, err
			}
			view, err := obj.Scan()
			if err != nil {
				return nil, err
			}
			if view[p.Me].Seq < u {
				return nil, &selfError{me: p.Me, want: u, got: view[p.Me].Seq}
			}
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

type selfError struct {
	me        core.PID
	want, got int
}

func (e *selfError) Error() string {
	return "scan by the updater missed its own update"
}

func TestScanUnderCrash(t *testing.T) {
	// One process crashes mid-protocol; the others' scans stay
	// linearizable and terminate.
	var mu sync.Mutex
	var vectors [][]int
	out, err := swmr.Run(3, swmr.Config{
		Chooser: swmr.Seeded(3),
		Crash:   map[core.PID]int{2: 7},
	}, func(p *swmr.Proc) (core.Value, error) {
		obj := New(p, "obj")
		for u := 0; u < 3; u++ {
			if err := obj.Update(u); err != nil {
				return nil, err
			}
			view, err := obj.Scan()
			if err != nil {
				return nil, err
			}
			mu.Lock()
			vectors = append(vectors, SeqVector(view))
			mu.Unlock()
		}
		return "done", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Values[0] != "done" || out.Values[1] != "done" {
		t.Fatalf("survivors did not finish: %v / %v", out.Values, out.Errs)
	}
	for i := 0; i < len(vectors); i++ {
		for j := i + 1; j < len(vectors); j++ {
			if _, err := CompareSeqVectors(vectors[i], vectors[j]); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestExploreSmallSnapshotLinearizable(t *testing.T) {
	// Exhaustively model-check an updater/scanner pair: p0 performs one
	// update, p1 scans twice concurrently. In every schedule all scans
	// must be comparable, p0's own update must be visible to its embedded
	// machinery, and p1's observed seq must be monotone across its scans.
	res, err := mc.Explore(mc.Options{MaxSchedules: 500_000}, func(ctx *mc.Ctx) error {
		var mu sync.Mutex
		var vectors [][]int
		ch := func(_ int, runnable []core.PID) int { return ctx.Choose(len(runnable)) }
		_, err := swmr.Run(2, swmr.Config{Chooser: ch}, func(p *swmr.Proc) (core.Value, error) {
			obj := New(p, "obj")
			if p.Me == 0 {
				return nil, obj.Update("a")
			}
			v1, err := obj.Scan()
			if err != nil {
				return nil, err
			}
			v2, err := obj.Scan()
			if err != nil {
				return nil, err
			}
			if v2[0].Seq < v1[0].Seq {
				return nil, &selfError{me: p.Me}
			}
			mu.Lock()
			vectors = append(vectors, SeqVector(v1), SeqVector(v2))
			mu.Unlock()
			return nil, nil
		})
		if err != nil {
			return err
		}
		for i := 0; i < len(vectors); i++ {
			for j := i + 1; j < len(vectors); j++ {
				if _, err := CompareSeqVectors(vectors[i], vectors[j]); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err == nil && res.Counterexample != nil {
		err = res.Counterexample.Err
	}
	if err != nil || !res.Exhausted {
		t.Fatalf("after %d schedules (exhausted %v): %v", res.Schedules, res.Exhausted, err)
	}
	if res.Schedules < 100 {
		t.Fatalf("suspiciously few schedules explored: %d", res.Schedules)
	}
	t.Logf("explored %d schedules exhaustively", res.Schedules)
}

func TestCompareSeqVectors(t *testing.T) {
	tests := []struct {
		a, b    []int
		want    int
		wantErr bool
	}{
		{[]int{1, 2}, []int{1, 2}, 0, false},
		{[]int{1, 1}, []int{1, 2}, -1, false},
		{[]int{2, 2}, []int{1, 2}, 1, false},
		{[]int{1, 2}, []int{2, 1}, 0, true},
		{[]int{1}, []int{1, 2}, 0, true},
	}
	for _, tt := range tests {
		got, err := CompareSeqVectors(tt.a, tt.b)
		if tt.wantErr != (err != nil) {
			t.Errorf("Compare(%v,%v) err = %v", tt.a, tt.b, err)
			continue
		}
		if err == nil && got != tt.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

// SeqVector extracts the per-process sequence numbers of a scan; two
// linearizable scans must have component-wise comparable vectors.
func SeqVector(view []Cell) []int {
	out := make([]int, len(view))
	for i, c := range view {
		out[i] = c.Seq
	}
	return out
}

// CompareSeqVectors returns -1, 0, or +1 when a ≤ b, a = b, or a ≥ b
// component-wise, and an error if the vectors are incomparable (which would
// disprove linearizability).
func CompareSeqVectors(a, b []int) (int, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("snapshot: vector lengths %d vs %d", len(a), len(b))
	}
	le, ge := true, true
	for i := range a {
		if a[i] > b[i] {
			le = false
		}
		if a[i] < b[i] {
			ge = false
		}
	}
	switch {
	case le && ge:
		return 0, nil
	case le:
		return -1, nil
	case ge:
		return 1, nil
	default:
		return 0, fmt.Errorf("snapshot: incomparable scans %v and %v", a, b)
	}
}
