// Service-level chaos: drive seeded client load at an in-process
// agreement-service cluster while killing and restarting a serving node
// mid-batch, then audit the three promises the service makes:
//
//   - Durability: every decision the victim acknowledged to a client
//     before the kill is in its journal, byte-for-byte recoverable — the
//     journal-before-ack rule. The planted AckBeforeJournalBug inverts
//     the rule so a deterministic crash hook (CrashAfterAcks) loses
//     exactly one acknowledged decision, which this audit must catch.
//   - Idempotency: retries reuse request IDs, across the kill and the
//     restart; all decided answers for one request ID agree, and no
//     journal ever holds two decisions for one instance.
//   - k-agreement and validity: across every client, batch, and the
//     victim's recovered state, each instance shows at most K distinct
//     decided values, all of them submitted by some client.
//
// The campaign is deterministic per seed in everything it plants (load
// shape, pins, values, kill point); scheduling decides which requests
// abstain or go unreachable, never whether an invariant holds.
package chaos

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/hist"
	"repro/internal/serve"
	"repro/internal/wal"
)

// ServeConfig shapes a kill-and-recover service campaign.
type ServeConfig struct {
	// N and F shape the mesh; 0 means 3 and 1. K is the agreement bound
	// audited across clients; 0 means F+1.
	N, F, K int

	// Seed drives everything planted: per-client load, server pins,
	// values, and the kill point. 0 means 1.
	Seed int64

	// Bug plants the ack-before-journal inversion on the victim; the
	// campaign must then report a lost-ack violation.
	Bug bool

	// dir is the WAL root; "" uses a temp directory, removed afterwards.
	dir string

	// Observer and Telemetry, when non-nil, meter the cluster.
	Observer  obs.Observer
	Telemetry *hist.Registry

	// Out, when non-nil, receives progress and violations.
	Out io.Writer
}

func (c *ServeConfig) withDefaults() ServeConfig {
	out := *c
	if out.N == 0 {
		out.N = 3
	}
	if out.F == 0 {
		out.F = 1
	}
	if out.K == 0 {
		out.K = out.F + 1
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	return out
}

// The campaign's load: serveClients concurrent clients make serveRequests
// submits each per batch, over an id space of serveInstances;
// serveRequestTimeout bounds one client attempt and is the server-side
// deadline.
const (
	serveClients        = 6
	serveRequests       = 12
	serveInstances      = 8
	serveRequestTimeout = 750 * time.Millisecond
)

// ServeViolation is one broken service promise.
type ServeViolation struct {
	// Kind is "lost-ack" | "divergent-recovery" | "duplicate-journal" |
	// "idempotency" | "validity" | "k-agreement" | "incarnation" |
	// "recovery-mismatch".
	Kind   string
	Detail string
}

// String renders the violation.
func (v ServeViolation) String() string {
	return fmt.Sprintf("serve-chaos: %s violation: %s", v.Kind, v.Detail)
}

// ServeSummary aggregates one campaign.
type ServeSummary struct {
	N, F, K int
	Seed    int64

	// CrashAfterAcks is the planted kill point, 2–4 acknowledged decisions
	// drawn from the seed; CrashFired whether the
	// victim reached it mid-batch (else it was killed at batch end).
	CrashAfterAcks int
	CrashFired     bool

	// Acked counts decided answers clients received (both batches);
	// Abstains, Overloads and Unreachable count the degraded outcomes;
	// Retries totals client backoff sleeps.
	Acked, Abstains, Overloads, Unreachable int
	Retries                                 int64

	// VictimAckedPreKill is the durability audit's subject size:
	// decisions the victim acknowledged before dying. DurableDecisions
	// is its journal's decision count at that moment.
	VictimAckedPreKill int
	DurableDecisions   int

	// DistinctMax is the widest per-instance decided-value set seen.
	DistinctMax int

	// VictimIncarnation is the restarted victim's incarnation (want 2).
	VictimIncarnation int

	Violations []ServeViolation
}

// Ok reports whether every service promise held.
func (s *ServeSummary) Ok() bool { return len(s.Violations) == 0 }

// String renders the campaign result.
func (s *ServeSummary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "serve-chaos: n=%d f=%d k=%d clients=%d×%d seed=%d: %d acked, %d abstained, %d overloaded, %d unreachable, %d retries; victim acked %d pre-kill (crash@%d fired=%v), %d durable, incarnation %d, distinct<=%d; %d violations",
		s.N, s.F, s.K, serveClients, serveRequests, s.Seed,
		s.Acked, s.Abstains, s.Overloads, s.Unreachable, s.Retries,
		s.VictimAckedPreKill, s.CrashAfterAcks, s.CrashFired,
		s.DurableDecisions, s.VictimIncarnation, s.DistinctMax, len(s.Violations))
	for _, v := range s.Violations {
		fmt.Fprintf(&b, "\n%s", v)
	}
	return b.String()
}

// RunServe runs one kill-and-recover service campaign.
func RunServe(cfg ServeConfig) (*ServeSummary, error) {
	c := cfg.withDefaults()
	sum := &ServeSummary{N: c.N, F: c.F, K: c.K, Seed: c.Seed}
	rng := rand.New(rand.NewSource(c.Seed))
	sum.CrashAfterAcks = 2 + rng.Intn(3)

	dir := c.dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "serve-chaos")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}

	victim := c.N - 1
	cl, err := serve.StartCluster(serve.ClusterConfig{
		N: c.N, F: c.F, K: c.K,
		Dir:            dir,
		Sync:           wal.SyncAlways,
		RequestTimeout: serveRequestTimeout,
		InstanceTTL:    4 * serveRequestTimeout,
		Seed:           c.Seed,
		Observer:       c.Observer,
		Hist:           c.Telemetry,
		Tune: func(i int, sc *serve.Config) {
			if i == victim {
				sc.CrashAfterAcks = sum.CrashAfterAcks
				sc.AckBeforeJournalBug = c.Bug
			}
		},
	})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	addrs := cl.ClientAddrs()

	// Plant the whole load up front, deterministically. Client 0's first
	// few requests pin victim-exclusive instances: no other client ever
	// submits them, so the victim commits each with a live waiter and the
	// CrashAfterAcks counter provably reaches the kill point mid-batch —
	// shared instances are often decided at the victim off its peers'
	// proposals first, and the resulting idempotent acks don't count.
	load := serve.PlantLoad(rng, serveClients, serveRequests, serveInstances, c.N)
	for ri := 0; ri < min(sum.CrashAfterAcks+2, serveRequests); ri++ {
		load.Requests[ri].Inst = fmt.Sprintf("v%d", ri)
		load.Requests[ri].Server = victim
	}

	progress := func(format string, args ...any) {
		if c.Out != nil {
			fmt.Fprintf(c.Out, format+"\n", args...)
		}
	}
	progress("serve-chaos: n=%d f=%d cluster up, victim p%d crash@%d acks (bug=%v), driving %d clients × %d requests",
		c.N, c.F, victim, sum.CrashAfterAcks, c.Bug, serveClients, serveRequests)

	runBatch := func(batch int, attempts int) []serve.LoadOutcome {
		outs, retries := load.Drive(addrs, serveClients, serve.ClientConfig{
			Timeout:     serveRequestTimeout,
			MaxAttempts: attempts,
			RetryUnit:   2 * time.Millisecond,
			Seed:        c.Seed + int64(1000*batch),
		})
		sum.Retries += retries
		return outs
	}

	// Batch A: the victim dies somewhere in the middle of this.
	batchA := runBatch(0, 4)
	select {
	case <-cl.Servers[victim].Crashed():
		sum.CrashFired = true
	default:
	}
	cl.Servers[victim].Kill()
	if sum.CrashFired {
		progress("serve-chaos: victim p%d hit its crash hook mid-batch", victim)
	} else {
		progress("serve-chaos: victim p%d outlived the hook; killed at batch end", victim)
	}

	// Durability audit against the dead victim's journal — before the
	// restart, so nothing the mesh re-teaches can mask a loss.
	js, err := serve.ReadJournal(filepath.Join(dir, fmt.Sprintf("n%d", victim)))
	if err != nil {
		return nil, fmt.Errorf("read victim journal: %w", err)
	}
	sum.DurableDecisions = len(js.Decisions)
	for _, inst := range js.DuplicateDecisions {
		sum.violate("duplicate-journal", fmt.Sprintf("victim journal decided instance %s more than once", inst))
	}
	for i, rq := range load.Requests {
		if rq.Server != victim || batchA[i].Status != serve.StatusDecided {
			continue
		}
		sum.VictimAckedPreKill++
		durable, ok := js.Decisions[rq.Inst]
		if !ok {
			sum.violate("lost-ack", fmt.Sprintf(
				"victim acknowledged %s=%d to request %s, journal has no decision for it",
				rq.Inst, batchA[i].Val, rq.Req))
		} else if durable != batchA[i].Val {
			sum.violate("divergent-recovery", fmt.Sprintf(
				"victim acknowledged %s=%d, journal holds %d", rq.Inst, batchA[i].Val, durable))
		}
	}

	restarted, err := cl.Restart(victim, nil)
	if err != nil {
		return nil, err
	}
	sum.VictimIncarnation = restarted.Incarnation()
	if sum.VictimIncarnation < 2 {
		sum.violate("incarnation", fmt.Sprintf("restarted victim reports incarnation %d, want >= 2", sum.VictimIncarnation))
	}
	rec := restarted.RecoveredDecisions()
	if len(rec) != len(js.Decisions) {
		sum.violate("recovery-mismatch", fmt.Sprintf(
			"restart recovered %d decisions, journal held %d", len(rec), len(js.Decisions)))
	}
	progress("serve-chaos: victim restarted as incarnation %d with %d recovered decisions; replaying the full load",
		sum.VictimIncarnation, len(rec))

	// Batch B: the identical load again — every request ID reused, the
	// restarted victim included.
	batchB := runBatch(1, 8)

	// Cross-batch audits.
	audit := serve.NewAuditor()
	for _, outs := range [][]serve.LoadOutcome{batchA, batchB} {
		t := load.Tally(audit, outs)
		sum.Acked += t.Decided
		sum.Abstains += t.Abstained
		sum.Overloads += t.Overloaded
		sum.Unreachable += t.Unreachable
	}
	for inst, val := range js.Decisions {
		audit.Note(inst, "", val)
	}
	_, sum.DistinctMax = audit.Decided()
	for _, v := range audit.Violations(load.Submitted(), c.K) {
		sum.violate(v.Kind, v.Detail(c.K))
	}

	if c.Out != nil {
		// The summary's String already carries every violation.
		fmt.Fprintf(c.Out, "%s\n", sum)
	}
	return sum, nil
}

func (s *ServeSummary) violate(kind, detail string) {
	s.Violations = append(s.Violations, ServeViolation{Kind: kind, Detail: detail})
}
