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
		ch := ctx.Pick
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

// TestScanViewOutlivesLaterOps holds Scan's result to be the caller's: its
// two collects fill the handle's own buffers, so a view taken early reads
// the same after the same handle scans and updates again, on both the
// direct path and the helping path.
func TestScanViewOutlivesLaterOps(t *testing.T) {
	const n, updates = 3, 6
	for seed := int64(0); seed < 20; seed++ {
		out, err := swmr.Run(n, swmr.Config{Chooser: swmr.Seeded(seed)}, func(p *swmr.Proc) (core.Value, error) {
			obj := New(p, "obj")
			if err := obj.Update(int(p.Me)); err != nil {
				return nil, err
			}
			view, err := obj.Scan()
			if err != nil {
				return nil, err
			}
			kept := append([]Cell(nil), view...)
			for u := 1; u < updates; u++ {
				if err := obj.Update(int(p.Me)*100 + u); err != nil {
					return nil, err
				}
				if _, err := obj.Scan(); err != nil {
					return nil, err
				}
			}
			for j := range kept {
				if view[j].Seq != kept[j].Seq || view[j].Value != kept[j].Value || len(view[j].View) != len(kept[j].View) {
					return nil, fmt.Errorf("component %d of an earlier view changed from (seq %d, %v) to (seq %d, %v)",
						j, kept[j].Seq, kept[j].Value, view[j].Seq, view[j].Value)
				}
			}
			return nil, nil
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for p, err := range out.Errs {
			t.Fatalf("seed %d, p%d: %v", seed, p, err)
		}
	}
}

// TestScanAllocsPerScan pins Scan's cost to the view it returns: its
// collects read registers into the handle's buffers, so a quiet scan of
// two clean collects allocates one slice.
func TestScanAllocsPerScan(t *testing.T) {
	run := func(scans int) float64 {
		return testing.AllocsPerRun(10, func() {
			_, err := swmr.Run(2, swmr.Config{Chooser: swmr.Seeded(1)}, func(p *swmr.Proc) (core.Value, error) {
				if p.Me == 1 {
					return nil, nil
				}
				obj := New(p, "obj")
				for s := 0; s < scans; s++ {
					if _, err := obj.Scan(); err != nil {
						return nil, err
					}
				}
				return nil, nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	// Measured 1; a []core.Value and a []Cell per collect was 5.
	if perScan := (run(200) - run(100)) / 100; perScan > 1 {
		t.Fatalf("a Scan allocated %.2f times, want <= 1 (the returned view)", perScan)
	}
}

// spinFirst returns a chooser that schedules process 0 whenever it can for
// the first spin steps, and process 1 whenever it can after them.
func spinFirst(spin int) core.Chooser {
	return func(step int, options []core.PID) int {
		want := core.PID(0)
		if step >= spin {
			want = 1
		}
		for i, p := range options {
			if p == want {
				return i
			}
		}
		return 0
	}
}

// TestRoundsScanRetryAllocs pins the snapshot exchange's retry: a scan that
// still misses more than f round values costs its view and nothing else.
// Process 0 writes round 1 and rescans alone while process 1 is held back,
// so every extra spin step is a retried scan's.
func TestRoundsScanRetryAllocs(t *testing.T) {
	run := func(spin int) (allocs float64, steps int) {
		allocs = testing.AllocsPerRun(10, func() {
			out, err := RunRounds(2, 0, 1, swmr.Config{Chooser: spinFirst(spin)}, nil)
			if err != nil {
				t.Fatal(err)
			}
			steps = out.Steps
		})
		return allocs, steps
	}
	a1, s1 := run(400)
	a2, s2 := run(800)
	// The steps of one uncontended scan, process 1 idle throughout.
	one, err := swmr.Run(2, swmr.Config{Chooser: spinFirst(1 << 20)}, func(p *swmr.Proc) (core.Value, error) {
		if p.Me == 1 {
			return nil, nil
		}
		_, err := New(p, "obj").Scan()
		return nil, err
	})
	if err != nil {
		t.Fatal(err)
	}
	// Measured 1, and a few hundredths more under -race, whose sync.Pool
	// drops puts at random; a suspect set and a message map per retry was 4.
	scans := float64(s2-s1) / float64(one.Steps)
	if perScan := (a2 - a1) / scans; perScan > 1.5 {
		t.Fatalf("a retried exchange scan allocated %.2f times, want 1 (the returned view)", perScan)
	}
}
