package snapshot

// Ablation: WHY the snapshot object embeds views and helps (Afek et al.).
// A plain double collect — return when two consecutive collects agree — is
// correct but only obstruction-free: a continually-moving writer starves
// the scanner, and the scan cost grows with the writer's update count. The
// helping path caps any scan at ~n+1 collects.

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/swmr"
)

// scanNoHelp is the ablated scan: double collect without helping. It
// returns the view and the number of collects it needed. Like Scan, it
// collects into the handle's buffers and allocates only the view.
func (o *Object) scanNoHelp(maxCollects int) ([]Cell, int, error) {
	if err := o.proc.Collect(o.reg, o.prev); err != nil {
		return nil, 1, err
	}
	for c := 2; c <= maxCollects; c++ {
		if err := o.proc.Collect(o.reg, o.cur); err != nil {
			return nil, c, err
		}
		same := true
		for j := range o.cur {
			if seq(o.cur[j]) != seq(o.prev[j]) {
				same = false
				break
			}
		}
		if same {
			return cells(o.cur), c, nil
		}
		o.prev, o.cur = o.cur, o.prev
	}
	return nil, maxCollects, fmt.Errorf("snapshot: no clean double collect within %d collects", maxCollects)
}

// interferingChooser paces the writer (p0) so that it completes roughly one
// full Update (about seven register operations at n = 2) between any two of
// the scanner's operations — the worst case for a double collect, which
// then never sees two quiet consecutive collects until the writer runs dry.
func interferingChooser() core.Chooser {
	turn := 0
	return func(step int, runnable []core.PID) int {
		turn++
		want := core.PID(0)
		if turn%8 == 0 {
			want = 1
		}
		for i, p := range runnable {
			if p == want {
				return i
			}
		}
		return 0
	}
}

// runAblation runs p0 performing `updates` updates against p1 scanning with
// or without helping, and returns the scanner's collect count.
func runAblation(t testing.TB, updates int, helping bool) int {
	collects := 0
	_, err := swmr.Run(2, swmr.Config{Chooser: interferingChooser()}, func(p *swmr.Proc) (core.Value, error) {
		obj := New(p, "abl")
		if p.Me == 0 {
			for u := 0; u < updates; u++ {
				if err := obj.Update(u); err != nil {
					return nil, err
				}
			}
			return nil, nil
		}
		if helping {
			if _, err := obj.Scan(); err != nil {
				return nil, err
			}
			// Scan's internal collect count is bounded by its
			// moved-twice rule (≤ n+2); termination under the same
			// interference is the point. Mark the helping path.
			collects = -1
			return nil, nil
		}
		_, c, err := obj.scanNoHelp(10 * updates)
		collects = c
		return nil, err
	})
	if err != nil {
		t.Fatal(err)
	}
	return collects
}

func TestHelpingBoundsScanCost(t *testing.T) {
	// Without helping, the interfering writer makes the scanner's collect
	// count grow with the number of updates...
	low := runAblation(t, 4, false)
	high := runAblation(t, 12, false)
	if high <= low {
		t.Fatalf("no-help scan cost did not grow with interference: %d then %d", low, high)
	}
	// ...while the helping scan terminates regardless (its internal bound
	// is moved-twice, at most n+2 collects — termination is the
	// assertion).
	if c := runAblation(t, 12, true); c != -1 {
		t.Fatalf("helping scan did not run: %d", c)
	}
}

func TestNoHelpScanStarvesUnderBudget(t *testing.T) {
	// Pinning the failure mode: with a tight collect budget the no-help
	// scan gives up while the writer is still moving.
	_, err := swmr.Run(2, swmr.Config{Chooser: interferingChooser()}, func(p *swmr.Proc) (core.Value, error) {
		obj := New(p, "abl")
		if p.Me == 0 {
			for u := 0; u < 50; u++ {
				if err := obj.Update(u); err != nil {
					return nil, err
				}
			}
			return nil, nil
		}
		_, _, err := obj.scanNoHelp(6)
		if err == nil {
			return nil, fmt.Errorf("no-help scan unexpectedly finished under continual interference")
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScanHelpingVsNoHelp(b *testing.B) {
	for _, updates := range []int{4, 16} {
		b.Run(fmt.Sprintf("nohelp/updates=%d", updates), func(b *testing.B) {
			total := 0
			for i := 0; i < b.N; i++ {
				total += runAblation(b, updates, false)
			}
			b.ReportMetric(float64(total)/float64(b.N), "collects/scan")
		})
		b.Run(fmt.Sprintf("helping/updates=%d", updates), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runAblation(b, updates, true)
			}
		})
	}
}
