// Package fleet is the sharded multi-instance engine: it runs thousands
// of concurrent RRFD agreement instances with flat struct-of-arrays round
// state, partitioned across par workers, with batched cross-shard message
// routing — the throughput substrate under the agreement service's
// many-instance workloads.
//
// # Protocol
//
// Every instance is an n-process, f-resilient min-flood k-set agreement
// execution in the round-by-round fault detector model: in each round
// every process broadcasts its current value and folds the minimum over
// what the detector delivers; after its final round each process decides
// its current value. Per instance a hashed "slow" set B(i) of f processes
// is drawn, and the round-r detector output at receiver p is
//
//	D(p, r) = { q ∈ B(i) : suspect-hash(i, r, p, q) odd },  p ∉ D(p, r)
//
// so |D| ≤ f, S(p,r) ∪ D(p,r) = S (eq. (3) of the paper), and processes
// outside B(i) are heard by everyone every round. That gives the
// standard bound: final values are at most f+1 distinct per instance
// ((f+1)-set agreement), every decided value is some process's input,
// and instance i terminates after R(i) = BaseRounds + hash-spread rounds.
// Audit re-derives the inputs and checks all three properties.
//
// # Engine shape
//
// State is flat: one word slab per shard holds the current values of the
// shard's processes across ALL instances (struct-of-arrays — no
// per-instance maps or slices on the hot path); the per-instance slow
// sets are one flat member list.
// Processes are partitioned across shards by pid (shard s owns the pids
// p with p mod Shards == s), so every instance spans every shard and
// every broadcast crosses shard boundaries — the interesting case for
// routing. A round is two par.Map barriers:
//
//	emit:    each shard packs (instance, sender, value) records for all
//	         its processes in all active instances into ONE slice, and
//	         hands that slice to every shard over a capacity-1 channel —
//	         one handoff per shard pair per round, however many
//	         instances are in flight.
//	deliver: each shard drains its S inbound batches, scatters the
//	         values into a slot-indexed scratch slab, and folds the
//	         min-with-suspicion rule for each of its processes.
//
// Instances are ordered by R(i) descending, so the active set at every
// round is a prefix of the slot order and the per-round sweep touches
// contiguous memory that only shrinks.
//
// All randomness (inputs, slow sets, round counts, suspicions) is
// stateless hashing of (seed, instance, round, receiver, sender) — never
// of anything shard- or schedule-dependent — so a fixed seed produces
// identical results at every Shards × Workers combination.
package fleet

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/par"
	"repro/internal/task"
)

// Config describes a fleet run.
type Config struct {
	// Instances is the number of concurrent agreement instances.
	Instances int

	// Procs is the per-instance process count n, at least 2.
	Procs int

	// F is the per-instance resilience: |B(i)| = F slow processes may be
	// suspected. 0 ≤ F < Procs. Decisions satisfy (F+1)-set agreement.
	F int

	// BaseRounds is the minimum rounds an instance runs (≥ 1);
	// RoundSpread adds a hashed 0..RoundSpread extra rounds so instances
	// finish at staggered times, as a real mixed workload would.
	BaseRounds  int
	RoundSpread int

	// Shards is the number of state shards (≤ 0 means 1); Workers the
	// par worker count driving them (≤ 0 means GOMAXPROCS). Neither
	// affects results, only speed.
	Shards  int
	Workers int

	// Seed fixes every hashed choice. Same seed, same results — at any
	// shard and worker count.
	Seed int64
}

func (c Config) validate() error {
	switch {
	case c.Instances < 1:
		return fmt.Errorf("fleet: Instances %d < 1", c.Instances)
	case c.Procs < 2:
		return fmt.Errorf("fleet: Procs %d < 2", c.Procs)
	case c.F < 0 || c.F >= c.Procs:
		return fmt.Errorf("fleet: F %d outside 0..Procs-1", c.F)
	case c.BaseRounds < 1:
		return fmt.Errorf("fleet: BaseRounds %d < 1", c.BaseRounds)
	case c.RoundSpread < 0:
		return fmt.Errorf("fleet: RoundSpread %d < 0", c.RoundSpread)
	}
	return nil
}

func (c Config) shards() int {
	if c.Shards < 1 {
		return 1
	}
	return c.Shards
}

// Hash tags: each hashed decision draws from its own stream.
const (
	tagInput uint64 = iota + 1
	tagSlow
	tagRounds
	tagSuspect
)

// mix is the splitmix64 finalizer — the avalanche step of every hash.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hash4 hashes (seed, tag, a, b, c) into a uniform word. Stateless: the
// same key gives the same answer on every shard and worker.
func hash4(seed uint64, tag, a, b, c uint64) uint64 {
	x := seed ^ tag*0x9e3779b97f4a7c15
	x = mix(x ^ a)
	x = mix(x ^ b)
	x = mix(x ^ c)
	return mix(x)
}

// Input returns the hashed proposal of process p in instance inst — the
// value the fleet seeds slot (inst, p) with, re-derivable by Audit.
func Input(cfg Config, inst int, p int) int64 {
	return int64(hash4(uint64(cfg.Seed), tagInput, uint64(inst), uint64(p), 0))
}

// rounds returns R(inst), the instance's total round count.
func rounds(cfg Config, inst int) int {
	if cfg.RoundSpread == 0 {
		return cfg.BaseRounds
	}
	return cfg.BaseRounds + int(hash4(uint64(cfg.Seed), tagRounds, uint64(inst), 0, 0)%uint64(cfg.RoundSpread+1))
}

// suspects reports whether receiver p suspects slow sender q in round r
// of instance inst: the detector coin, one independent flip per
// (instance, round, receiver, sender).
func suspects(seed uint64, inst int32, r int, p, q int32) bool {
	return hash4(seed, tagSuspect, uint64(inst), uint64(r), uint64(p)<<32|uint64(uint32(q)))&1 == 1
}

// shard is one partition of fleet state, in arrays of its own.
type shard struct {
	owned []int32 // pids this shard owns (p with p % S == shard index)

	// vals[slot*len(owned)+j] is the current value (int64 bits) of owned
	// pid j in the instance at slot — the struct-of-arrays round state.
	vals []uint64

	// emitBuf is the packed outbound batch: records of two words each,
	// (instance<<32 | sender, value), for every owned process of every
	// active instance, rebuilt each round and handed to all shards.
	emitBuf []uint64

	// scratch[slot*n+sender] is the deliver-phase gather of all n sender
	// values per active instance, scattered from the inbound batches.
	scratch []uint64
}

// fleet is a constructed engine: derived schedule plus sharded state.
type fleet struct {
	cfg  Config
	n, S int
	maxR int

	rds []int32 // rds[i] = R(i)
	ord []int32 // slot -> instance, sorted by R desc then instance id
	pos []int32 // instance -> slot
	cnt []int32 // cnt[r] = instances with R(i) >= r; index 0..maxR+1

	slowList []int32 // slow set B(i) as the flat member list [inst*F+k]

	shards []shard
	route  [][]chan []uint64 // route[src][dst], capacity 1
}

func newFleet(cfg Config) (*fleet, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	S := cfg.shards()
	n := cfg.Procs
	f := &fleet{cfg: cfg, n: n, S: S, maxR: cfg.BaseRounds + cfg.RoundSpread}

	// Derived schedule: per-instance round counts, the R-descending slot
	// order (counting sort — deterministic, stable by instance id), and
	// the active-prefix size per round.
	inst := cfg.Instances
	f.rds = make([]int32, inst)
	f.cnt = make([]int32, f.maxR+2)
	for i := 0; i < inst; i++ {
		r := rounds(cfg, i)
		f.rds[i] = int32(r)
		f.cnt[r]++
	}
	start := make([]int32, f.maxR+2) // first slot for instances with R == r
	var acc int32
	for r := f.maxR; r >= 1; r-- {
		c := f.cnt[r]
		start[r] = acc
		acc += c
		f.cnt[r] = acc // now cnt[r] = #instances with R >= r
	}
	f.ord = make([]int32, inst)
	f.pos = make([]int32, inst)
	for i := 0; i < inst; i++ {
		slot := start[f.rds[i]]
		start[f.rds[i]]++
		f.ord[slot] = int32(i)
		f.pos[i] = slot
	}

	// Slow sets: for each instance the F pids with the smallest slow-hash
	// (ties to the lower pid), in the order they are picked.
	f.slowList = make([]int32, inst*cfg.F)
	for i := 0; i < inst; i++ {
		for k := 0; k < cfg.F; k++ {
			picked := f.slowList[i*cfg.F : i*cfg.F+k]
			best, bestH := int32(-1), uint64(math.MaxUint64)
			for p := int32(0); p < int32(n); p++ {
				if slices.Contains(picked, p) {
					continue
				}
				if h := hash4(uint64(cfg.Seed), tagSlow, uint64(i), uint64(p), 0); h < bestH {
					best, bestH = p, h
				}
			}
			f.slowList[i*cfg.F+k] = best
		}
	}

	// Sharded state: pid p lives on shard p % S.
	f.shards = make([]shard, S)
	for d := 0; d < S; d++ {
		sh := &f.shards[d]
		for p := d; p < n; p += S {
			sh.owned = append(sh.owned, int32(p))
		}
		cd := len(sh.owned)
		sh.vals = make([]uint64, inst*cd)
		sh.emitBuf = make([]uint64, 2*inst*cd)
		sh.scratch = make([]uint64, inst*n)
	}
	f.route = make([][]chan []uint64, S)
	for s := range f.route {
		f.route[s] = make([]chan []uint64, S)
		for d := range f.route[s] {
			f.route[s][d] = make(chan []uint64, 1)
		}
	}
	return f, nil
}

// scatterInputs seeds every slot with its hashed proposal.
func (f *fleet) scatterInputs() {
	for d := range f.shards {
		sh := &f.shards[d]
		cd := len(sh.owned)
		for i := 0; i < f.cfg.Instances; i++ {
			slot := int(f.pos[i])
			for j, p := range sh.owned {
				sh.vals[slot*cd+j] = uint64(Input(f.cfg, i, int(p)))
			}
		}
	}
}

// gather reads the sharded state back into canonical [inst*n+p] order.
func (f *fleet) gather() []int64 {
	out := make([]int64, f.cfg.Instances*f.n)
	for d := range f.shards {
		sh := &f.shards[d]
		cd := len(sh.owned)
		for i := 0; i < f.cfg.Instances; i++ {
			slot := int(f.pos[i])
			for j, p := range sh.owned {
				out[i*f.n+int(p)] = int64(sh.vals[slot*cd+j])
			}
		}
	}
	return out
}

// emit packs shard d's outbound batch for round r and hands it to every
// shard: one channel send per destination, one batch per shard pair.
func (f *fleet) emit(d, r int) {
	sh := &f.shards[d]
	cd := len(sh.owned)
	nAct := int(f.cnt[r])
	idx := 0
	for a := 0; a < nAct; a++ {
		i := f.ord[a]
		base := a * cd
		for j, p := range sh.owned {
			sh.emitBuf[idx] = uint64(i)<<32 | uint64(uint32(p))
			sh.emitBuf[idx+1] = sh.vals[base+j]
			idx += 2
		}
	}
	batch := sh.emitBuf[:idx]
	for dst := 0; dst < f.S; dst++ {
		f.route[d][dst] <- batch
	}
}

// deliver drains shard d's inbound batches for round r, scatters the
// sender values into the slot-indexed scratch slab, and applies the
// min-with-suspicion fold to every owned process of every active
// instance.
func (f *fleet) deliver(d, r int) {
	sh := &f.shards[d]
	cd := len(sh.owned)
	n := f.n
	F := f.cfg.F
	seed := uint64(f.cfg.Seed)
	for src := 0; src < f.S; src++ {
		buf := <-f.route[src][d]
		for k := 0; k < len(buf); k += 2 {
			w := buf[k]
			slot := int(f.pos[w>>32])
			sh.scratch[slot*n+int(uint32(w))] = buf[k+1]
		}
	}
	nAct := int(f.cnt[r])
	for a := 0; a < nAct; a++ {
		i := f.ord[a]
		base := a * n
		sl := f.slowList[int(i)*F : int(i)*F+F]
		// minFast: the minimum over senders outside B(i), which no
		// receiver may suspect — every process folds it in.
		minFast := int64(math.MaxInt64)
		for s := 0; s < n; s++ {
			isSlow := false
			for _, q := range sl {
				if int32(s) == q {
					isSlow = true
					break
				}
			}
			if isSlow {
				continue
			}
			if v := int64(sh.scratch[base+s]); v < minFast {
				minFast = v
			}
		}
		for j, p := range sh.owned {
			v := int64(sh.vals[a*cd+j])
			if minFast < v {
				v = minFast
			}
			for _, q := range sl {
				if q == p {
					continue // own value already folded; never self-suspect
				}
				if sv := int64(sh.scratch[base+int(q)]); sv < v && !suspects(seed, i, r, p, q) {
					v = sv
				}
			}
			sh.vals[a*cd+j] = uint64(v)
		}
	}
}

// run executes rounds 1..maxR and returns the result. Each round is two
// barriers: every shard emits, then every shard delivers. Fusing them
// would deadlock with fewer workers than shards (a delivering shard would
// wait on a shard not yet scheduled).
func (f *fleet) run() (*Result, error) {
	W := f.cfg.Workers
	for r := 1; r <= f.maxR && f.cnt[r] > 0; r++ {
		if _, err := par.Map(W, f.S, func(d int) struct{} { f.emit(d, r); return struct{}{} }); err != nil {
			return nil, err
		}
		if _, err := par.Map(W, f.S, func(d int) struct{} { f.deliver(d, r); return struct{}{} }); err != nil {
			return nil, err
		}
	}
	rds := make([]int32, len(f.rds))
	copy(rds, f.rds)
	return &Result{
		Instances: f.cfg.Instances,
		Procs:     f.n,
		Rounds:    rds,
		Values:    f.gather(),
	}, nil
}

// Run executes a fleet from scratch.
func Run(cfg Config) (*Result, error) {
	f, err := newFleet(cfg)
	if err != nil {
		return nil, err
	}
	f.scatterInputs()
	return f.run()
}

// Result is a fleet's outcome: the canonical per-process decisions plus
// the schedule.
type Result struct {
	Instances int
	Procs     int
	Rounds    []int32
	Values    []int64 // [inst*Procs + p]
}

// InstanceRounds is the total work the schedule represents: ΣᵢR(i) — the
// unit of the fleet's throughput metric.
func (r *Result) InstanceRounds() int64 {
	var t int64
	for _, rr := range r.Rounds {
		t += int64(rr)
	}
	return t
}

// Audit re-derives the hashed inputs and slow sets and checks the
// protocol's three guarantees on a finished result: (f+1)-set agreement
// per instance, validity (every decision is some process's input, and no
// process decides above its own input), and termination (every instance
// ran its derived schedule). It is the test harness's ground truth.
func Audit(cfg Config, res *Result) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	if res.Instances != cfg.Instances || res.Procs != cfg.Procs {
		return fmt.Errorf("fleet: result shape %dx%d does not match config %dx%d",
			res.Instances, res.Procs, cfg.Instances, cfg.Procs)
	}
	n := cfg.Procs
	inputs := make(map[int64]bool, n)
	for i := 0; i < cfg.Instances; i++ {
		if int(res.Rounds[i]) != rounds(cfg, i) {
			return fmt.Errorf("fleet: instance %d ran %d rounds, schedule says %d", i, res.Rounds[i], rounds(cfg, i))
		}
		clear(inputs)
		for p := 0; p < n; p++ {
			inputs[Input(cfg, i, p)] = true
		}
		values := res.Values[i*n : (i+1)*n]
		if v, ok := task.KSet(cfg.F+1, func(v int64) bool { return inputs[v] }, n,
			func(p int) (int64, bool) { return values[p], true }, nil).Err().(*task.Violation); ok {
			if v.Index < 0 {
				return fmt.Errorf("fleet: instance %d: %w", i, v)
			}
			return fmt.Errorf("fleet: instance %d process %d %w", i, v.Index, v)
		}
		for p, v := range values {
			if own := Input(cfg, i, p); v > own {
				return fmt.Errorf("fleet: instance %d process %d decided %d above own input %d", i, p, v, own)
			}
		}
	}
	return nil
}
