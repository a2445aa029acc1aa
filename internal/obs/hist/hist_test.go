package hist

import (
	"encoding/json"
	"math"
	"sort"
	"sync"
	"testing"
	"time"
)

// lcg is a tiny deterministic generator so the reference distributions are
// reproducible without seeding global state.
type lcg uint64

func (l *lcg) next() uint64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return uint64(*l)
}

func TestBucketRoundTrip(t *testing.T) {
	// Every value must land in a bucket whose upper bound is >= the value
	// and within the layout's relative-error guarantee.
	var g lcg = 42
	check := func(v int64) {
		t.Helper()
		b := bucketIndex(v)
		u := bucketUpper(b)
		if u < v {
			t.Fatalf("value %d: bucket %d upper %d < value", v, b, u)
		}
		if v >= 32 && float64(u-v) > float64(v)/float64(subCount)+1 {
			t.Fatalf("value %d: bucket %d upper %d overshoots by %d", v, b, u, u-v)
		}
		if b > 0 && bucketUpper(b-1) >= v {
			t.Fatalf("value %d: previous bucket %d upper %d already covers it", v, b-1, bucketUpper(b-1))
		}
	}
	for v := int64(0); v < 4096; v++ {
		check(v)
	}
	for i := 0; i < 10000; i++ {
		check(int64(g.next() >> 1))
	}
	if got := bucketIndex(math.MaxInt64); got >= nBuckets {
		t.Fatalf("MaxInt64 bucket %d out of range %d", got, nBuckets)
	}
}

// TestQuantileAccuracy checks quantile estimates against a sort-based
// reference over several distribution shapes: the estimate must bracket
// the true order statistic within one bucket width (~1/16 relative).
func TestQuantileAccuracy(t *testing.T) {
	var g lcg = 7
	shapes := map[string]func() int64{
		"uniform_1e6":  func() int64 { return int64(g.next() % 1_000_000) },
		"exponential":  func() int64 { return int64(1) << (g.next() % 30) },
		"small_counts": func() int64 { return int64(g.next() % 20) },
		"heavy_tail": func() int64 {
			v := int64(g.next() % 1000)
			if g.next()%100 == 0 {
				v *= 10_000
			}
			return v
		},
	}
	quantiles := []float64{0.50, 0.90, 0.99, 0.999}
	for name, draw := range shapes {
		t.Run(name, func(t *testing.T) {
			h := New()
			vals := make([]int64, 0, 20000)
			for i := 0; i < 20000; i++ {
				v := draw()
				vals = append(vals, v)
				h.Record(v)
			}
			sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
			snap := h.Snapshot()
			if snap.Count != int64(len(vals)) {
				t.Fatalf("count %d, want %d", snap.Count, len(vals))
			}
			if snap.Max != vals[len(vals)-1] {
				t.Fatalf("max %d, want %d", snap.Max, vals[len(vals)-1])
			}
			for _, q := range quantiles {
				rank := int(math.Ceil(q*float64(len(vals)))) - 1
				exact := vals[rank]
				got := snap.Quantile(q)
				// The estimate is the bucket upper bound: never below the
				// true order statistic, and at most one bucket width above.
				if got < exact {
					t.Errorf("q=%v: estimate %d below exact %d", q, got, exact)
				}
				tol := float64(exact)/float64(subCount) + 1
				if float64(got-exact) > tol {
					t.Errorf("q=%v: estimate %d, exact %d, tolerance %v", q, got, exact, tol)
				}
			}
		})
	}
}

func TestConcurrentRecord(t *testing.T) {
	h := New()
	const goroutines, per = 16, 2000
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			g := lcg(seed)
			for i := 0; i < per; i++ {
				h.Record(int64(g.next() % 1_000_000))
			}
		}(uint64(gi + 1))
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*per {
		t.Fatalf("count %d, want %d", got, goroutines*per)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Get("round_ns").Record(100)
	r.Get("round_ns").Record(200)
	r.Get("never_recorded")
	if h := r.Get("round_ns"); h.Count() != 2 {
		t.Fatalf("count %d, want 2", h.Count())
	}
	snaps := r.Snapshot()
	if _, ok := snaps["never_recorded"]; ok {
		t.Fatalf("empty histogram not elided from snapshot")
	}
	if snaps["round_ns"].Count != 2 || snaps["round_ns"].Sum != 300 {
		t.Fatalf("round_ns snap %+v", snaps["round_ns"])
	}
	data, err := json.Marshal(snaps["round_ns"])
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]float64
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"count", "sum", "mean", "max", "p50", "p90", "p99", "p999"} {
		if _, ok := decoded[k]; !ok {
			t.Fatalf("snapshot JSON missing %q: %s", k, data)
		}
	}
	if decoded["p999"] != 200 {
		t.Fatalf("p999 %v, want 200 (clamped to max)", decoded["p999"])
	}
}

// TestUnsetHistogramRecordsNothing: a nil registry hands out nil
// histograms, and a nil histogram takes Record and Since as no-ops, so a
// recording site needs no guard. A live one's Since records the elapsed
// nanoseconds.
func TestUnsetHistogramRecordsNothing(t *testing.T) {
	var r *Registry
	h := r.Get("unset")
	if h != nil {
		t.Fatalf("a nil registry returned %v", h)
	}
	h.Record(1)
	h.Since(time.Now())

	live := NewRegistry().Get("live")
	t0 := time.Now()
	time.Sleep(time.Millisecond)
	live.Since(t0)
	if s := live.Snapshot(); s.Count != 1 || s.Max < int64(time.Millisecond) {
		t.Fatalf("Since recorded %d values, max %d ns; want 1 of at least %d", s.Count, s.Max, time.Millisecond)
	}
}
