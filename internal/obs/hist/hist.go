// Package hist provides log-bucketed (HDR-style) latency and
// size histograms with sharded atomic recording and quantile queries.
//
// Values are non-negative int64s (nanoseconds, message counts, queue
// depths). The bucket layout is log-linear: each power-of-two octave is
// split into 16 linear sub-buckets, so any recorded value lands in a
// bucket whose width is at most 1/16 of its magnitude — quantile answers
// carry a bounded ~6.25% relative error while the whole histogram stays a
// fixed 976 buckets regardless of range. Values 0..31 are exact.
//
// Record is safe for concurrent use and contention-free on the fast path:
// counts are split across a small set of shards, each updated with plain
// atomic adds, and a shard is picked per call from a cheap per-goroutine
// random source. Readers (Snapshot, Count) sum across shards; they see
// every completed Record but take no lock and stop no writer.
package hist

import (
	"encoding/json"
	"math/bits"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

const (
	subBits  = 4
	subCount = 1 << subBits // linear sub-buckets per octave

	// nBuckets covers every uint63 value: indexes 0..31 are exact, then
	// 16 sub-buckets for each octave up to 2^63.
	nBuckets = subCount * (64 - subBits + 1)

	// nShards spreads concurrent recorders across cachelines. Power of
	// two so the shard pick is a mask.
	nShards = 8
)

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	u := uint64(v)
	if u < 2*subCount {
		return int(u) // exact buckets 0..31
	}
	h := bits.Len64(u) // 2^(h-1) <= u < 2^h, h >= 6
	shift := uint(h - 1 - subBits)
	sub := (u >> shift) & (subCount - 1)
	return subCount*(h-subBits) + int(sub)
}

// bucketUpper returns the largest value mapping to bucket i.
func bucketUpper(i int) int64 {
	if i < 2*subCount {
		return int64(i)
	}
	h := i/subCount + subBits
	shift := uint(h - 1 - subBits)
	sub := uint64(i % subCount)
	return int64(((subCount + sub + 1) << shift) - 1)
}

// shard is one recorder lane, padded out to its own cacheline region.
type shard struct {
	count  atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
	counts [nBuckets]atomic.Int64
	_      [64]byte
}

// Histogram is a concurrency-safe log-bucketed histogram. The zero value
// is not usable; call New.
type Histogram struct {
	shards *[nShards]shard
}

// New returns an empty histogram.
func New() *Histogram {
	return &Histogram{shards: new([nShards]shard)}
}

// Record adds one observation. Negative values clamp to zero. A nil
// histogram records nothing, so an unset one costs its callers no guard.
func (h *Histogram) Record(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	s := &h.shards[rand.Uint64()&(nShards-1)]
	s.counts[bucketIndex(v)].Add(1)
	s.count.Add(1)
	s.sum.Add(v)
	for {
		m := s.max.Load()
		if v <= m || s.max.CompareAndSwap(m, v) {
			break
		}
	}
}

// Since records the nanoseconds elapsed since t0. A nil histogram records
// nothing and reads no clock.
func (h *Histogram) Since(t0 time.Time) {
	if h != nil {
		h.Record(time.Since(t0).Nanoseconds())
	}
}

// Reset clears every observation in place, preserving the histogram's
// identity: pointers handed out earlier keep recording into it. Records
// racing a Reset land wholly before or wholly after it only per field, so
// Reset is for quiescent moments (between campaign phases), not for
// consistent point-in-time reads — that is Snapshot.
func (h *Histogram) Reset() {
	for i := range h.shards {
		s := &h.shards[i]
		s.count.Store(0)
		s.sum.Store(0)
		s.max.Store(0)
		for j := range s.counts {
			s.counts[j].Store(0)
		}
	}
}

// Count returns the number of observations recorded so far.
func (h *Histogram) Count() int64 {
	var c int64
	for i := range h.shards {
		c += h.shards[i].count.Load()
	}
	return c
}

// Snapshot freezes the current contents into a Snap.
func (h *Histogram) Snapshot() Snap {
	s := Snap{counts: make([]int64, nBuckets)}
	for i := range h.shards {
		sh := &h.shards[i]
		for b := range sh.counts {
			s.counts[b] += sh.counts[b].Load()
		}
		s.Count += sh.count.Load()
		s.Sum += sh.sum.Load()
		if m := sh.max.Load(); m > s.Max {
			s.Max = m
		}
	}
	return s
}

// Quantile returns an estimate of the q-quantile (0 < q <= 1) directly
// from the live histogram; shorthand for Snapshot().Quantile(q).
func (h *Histogram) Quantile(q float64) int64 { return h.Snapshot().Quantile(q) }

// Snap is a frozen histogram: totals plus the per-bucket counts.
type Snap struct {
	Count int64
	Sum   int64
	Max   int64

	counts []int64
}

// Mean returns the arithmetic mean of the observations, 0 when empty.
func (s Snap) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns an estimate of the q-quantile (0 < q <= 1): the upper
// bound of the bucket holding the ceil(q*Count)-th smallest observation,
// clamped to the recorded maximum. Returns 0 when empty.
func (s Snap) Quantile(q float64) int64 {
	if s.Count == 0 || len(s.counts) == 0 {
		return 0
	}
	rank := int64(q*float64(s.Count) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum int64
	for b, n := range s.counts {
		cum += n
		if cum >= rank {
			if u := bucketUpper(b); u < s.Max {
				return u
			}
			return s.Max
		}
	}
	return s.Max
}

// snapJSON is the exported wire shape of a Snap.
type snapJSON struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Mean  float64 `json:"mean"`
	Max   int64   `json:"max"`
	P50   int64   `json:"p50"`
	P90   int64   `json:"p90"`
	P99   int64   `json:"p99"`
	P999  int64   `json:"p999"`
}

// MarshalJSON renders the snapshot as its summary statistics.
func (s Snap) MarshalJSON() ([]byte, error) {
	return json.Marshal(snapJSON{
		Count: s.Count,
		Sum:   s.Sum,
		Mean:  s.Mean(),
		Max:   s.Max,
		P50:   s.Quantile(0.50),
		P90:   s.Quantile(0.90),
		P99:   s.Quantile(0.99),
		P999:  s.Quantile(0.999),
	})
}

// Registry is a concurrency-safe set of named histograms, created lazily
// on first use. Hot paths should call Get once and keep the pointer; the
// returned *Histogram records without touching the registry lock.
type Registry struct {
	mu sync.Mutex
	m  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{m: make(map[string]*Histogram)}
}

// Reset clears every registered histogram in place. Names and histogram
// identities survive, so meters holding Get results keep working.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, h := range r.m {
		h.Reset()
	}
}

// Get returns the histogram registered under name, creating it if absent.
// A nil registry returns a nil histogram, which records nothing.
func (r *Registry) Get(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.m[name]
	if !ok {
		h = New()
		r.m[name] = h
	}
	return h
}

// Snapshot freezes every non-empty histogram. Empty histograms (created
// but never recorded into) are elided so exports stay noise-free.
func (r *Registry) Snapshot() map[string]Snap {
	r.mu.Lock()
	hs := make(map[string]*Histogram, len(r.m))
	for k, h := range r.m {
		hs[k] = h
	}
	r.mu.Unlock()
	out := make(map[string]Snap, len(hs))
	for k, h := range hs {
		if s := h.Snapshot(); s.Count > 0 {
			out[k] = s
		}
	}
	return out
}
