package serve

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/wal"
)

func benchCluster(b *testing.B, maxInflight int) *Cluster {
	b.Helper()
	cl, err := StartCluster(ClusterConfig{
		N: 3, F: 1, K: 2,
		Dir:            b.TempDir(),
		Sync:           wal.SyncNever,
		MaxInflight:    maxInflight,
		RequestTimeout: 5 * time.Second,
		Seed:           1,
	})
	if err != nil {
		b.Fatalf("StartCluster: %v", err)
	}
	b.Cleanup(cl.Close)
	return cl
}

// BenchmarkServeDecide measures end-to-end decisions through the
// service: client submit over loopback TCP → mesh propose/gather across
// a 3-node cluster → journal append → acknowledged response. SyncNever
// keeps the fsync cost of the filesystem out of the number; the journal
// write path itself is included.
//
// serial is one client round-tripping one instance at a time — pure
// latency; it also reports the cluster's mesh frames (sheds counted) and
// journal commits per decide. throughput is many concurrent clients over disjoint
// instances, the shape the sharded instance table, the WAL group
// commit, and the multi-event turn exist for; it reports
// decides/sec and is tracked against serial in BENCH_core.json.
func BenchmarkServeDecide(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		cl := benchCluster(b, 0)
		c := NewClient(ClientConfig{Addr: cl.ClientAddrs()[0], Timeout: 5 * time.Second, Seed: 1})
		defer c.Close()

		// Warm the mesh so dial latency stays out of the measurement.
		if _, err := c.Submit("warm", "warm", 0); err != nil {
			b.Fatalf("warmup: %v", err)
		}
		frames, commits := meshAndJournal(cl)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			inst := fmt.Sprintf("bench-%d", i)
			resp, err := c.Submit(inst, inst, i)
			if err != nil {
				b.Fatalf("submit %d: %v", i, err)
			}
			if resp.Status != StatusDecided {
				b.Fatalf("submit %d: status %s", i, resp.Status)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "decides/sec")
		f, j := meshAndJournal(cl)
		b.ReportMetric(float64(f-frames)/float64(b.N), "frames/decide")
		b.ReportMetric(float64(j-commits)/float64(b.N), "commits/decide")
	})

	b.Run("throughput", func(b *testing.B) {
		const clients = 16
		cl := benchCluster(b, 1<<16)
		cs := make([]*Client, clients)
		for w := range cs {
			cs[w] = NewClient(ClientConfig{
				Addr: cl.ClientAddrs()[w%3], Timeout: 5 * time.Second, Seed: int64(w),
			})
			defer cs[w].Close()
			if _, err := cs[w].Submit(fmt.Sprintf("warm-%d", w), "warm", 0); err != nil {
				b.Fatalf("warmup %d: %v", w, err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		// Static slicing of b.N across the clients: every iteration is one
		// decided instance, all clients in flight at once.
		var wg sync.WaitGroup
		var failed sync.Once
		var benchErr error
		for w := 0; w < clients; w++ {
			lo := b.N * w / clients
			hi := b.N * (w + 1) / clients
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				c := cs[w]
				for i := lo; i < hi; i++ {
					inst := fmt.Sprintf("bench-%d", i)
					resp, err := c.Submit(inst, inst, i)
					if err != nil {
						failed.Do(func() { benchErr = fmt.Errorf("submit %d: %w", i, err) })
						return
					}
					if resp.Status != StatusDecided {
						failed.Do(func() { benchErr = fmt.Errorf("submit %d: status %s", i, resp.Status) })
						return
					}
				}
			}(w, lo, hi)
		}
		wg.Wait()
		if benchErr != nil {
			b.Fatal(benchErr)
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "decides/sec")
	})
}

// meshAndJournal sums the cluster's mesh frames, sheds counted, and its
// journal commits.
func meshAndJournal(cl *Cluster) (frames, commits int64) {
	for _, s := range cl.Servers {
		ms := s.Mesh().Stats()
		frames += ms.FramesSent + ms.Sheds
		commits += s.JournalStats().Batches
	}
	return frames, commits
}

// BenchmarkServeRead measures the read path the way ServeDecide/serial
// measures the write path: one client re-reading 64 decided instances,
// one request at a time — as re-submits (hit: answered from the decision
// table under the request's own ID) and as queries.
func BenchmarkServeRead(b *testing.B) {
	const decided = 64
	for _, op := range []string{"hit", "query"} {
		b.Run(op, func(b *testing.B) {
			cl := benchCluster(b, 0)
			c := NewClient(ClientConfig{Addr: cl.ClientAddrs()[0], Timeout: 5 * time.Second, Seed: 1})
			defer c.Close()
			insts := make([]string, decided)
			for i := range insts {
				insts[i] = fmt.Sprintf("read-%d", i)
				if resp, err := c.Submit(insts[i], insts[i], i); err != nil || resp.Status != StatusDecided {
					b.Fatalf("decide %s: %+v, %v", insts[i], resp, err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inst := insts[i%decided]
				var resp Response
				var err error
				if op == "hit" {
					resp, err = c.Submit(inst, inst, -1)
				} else {
					resp, err = c.Query(inst)
				}
				if err != nil || resp.Status != StatusDecided || resp.Val != i%decided {
					b.Fatalf("%s %s: %+v, %v", op, inst, resp, err)
				}
			}
		})
	}
}
