package mc

import (
	"repro/internal/par"
)

// Ctx drives one run of the function under exploration. The run must be a
// deterministic function of the values Choose returns: same choices, same
// execution. Ctx is not safe for concurrent use and must not be retained
// past the run call it was passed to.
type Ctx struct {
	t *task

	// replay mode (t == nil): choices feed the run, clamped in range;
	// beyond the provided sequence every choice defaults to 0. got
	// records the value actually returned for each provided index.
	replay []int
	rp     int
	got    []int
	abort  error // set by Fail
}

// Choose asks the explorer to pick one of options alternatives (numbered
// 0..options-1) and returns the pick. options must be positive: a node
// with nothing to choose is a bug in the run function, not an adversary
// decision, and panics.
func (c *Ctx) Choose(options int) int {
	return c.choose(options, nil)
}

// ChooseLabeled is Choose with a stable label per option, enabling the
// symmetry and sleep-set reductions: two options at the same node carrying
// the same label are taken to reach symmetric states and only the first is
// explored, and Options.Independent consults labels to skip commuting
// interleavings. Labels must be a deterministic function of the choice
// prefix, like everything else about the run.
func (c *Ctx) ChooseLabeled(labels []uint64) int {
	return c.choose(len(labels), labels)
}

// Mark reports a fingerprint of the complete current state, enabling
// state-hash pruning: when a later schedule reaches a Mark'd fingerprint
// whose subtree was already fully enumerated, that subtree is cut. The
// fingerprint must capture every piece of state the remaining execution
// can depend on; Mark takes effect at the next Choose and is ignored
// during replay and frontier sampling.
func (c *Ctx) Mark(hash uint64) {
	if c.t != nil {
		c.t.mark(hash)
	}
}

// Fail reports that the schedule cannot be run at all — the system under
// exploration is ill-formed at this point (an adversary with no move to
// offer), which is a fact about the run function's inputs, not a property
// violation. Explore stops and returns err as its error, with the counters
// accumulated so far; Replay returns err. The run should then wind down and
// return; until it does, Choose answers 0. Only the first Fail of a
// schedule counts.
func (c *Ctx) Fail(err error) {
	abort := &c.abort
	if c.t != nil {
		abort = &c.t.abort
	}
	if *abort == nil {
		*abort = err
	}
}

func (c *Ctx) choose(options int, labels []uint64) int {
	if options <= 0 {
		panic("mc: Choose called with no options")
	}
	if c.t != nil {
		return c.t.choose(options, labels)
	}
	v := 0
	if c.abort != nil {
		return v
	}
	if c.rp < len(c.replay) {
		v = c.replay[c.rp]
		if v < 0 {
			v = 0
		}
		if v >= options {
			v = options - 1
		}
		c.got = append(c.got, v)
	}
	c.rp++
	return v
}

// Replay re-executes run driven by a recorded choice sequence (for
// example a Counterexample's Choices, or a string decoded by
// ParseChoices) and returns whatever the run returns — or, if the run
// called Ctx.Fail, the error it was handed. Out-of-range
// choices are clamped and choices beyond the sequence default to 0, so a
// shrunk or hand-edited sequence always replays to *some* schedule.
func Replay(choices []int, run func(*Ctx) error) error {
	err, _ := replayNorm(choices, run)
	return err
}

// replayNorm is Replay plus the normalized sequence: the clamped values
// actually consumed, truncated to what the run read and stripped of
// trailing zeros (which replay identically as defaults).
func replayNorm(choices []int, run func(*Ctx) error) (error, []int) {
	ctx := &Ctx{replay: choices}
	err := run(ctx)
	if ctx.abort != nil {
		err = ctx.abort
	}
	norm := ctx.got
	for len(norm) > 0 && norm[len(norm)-1] == 0 {
		norm = norm[:len(norm)-1]
	}
	return err, norm
}

// frame is one node of the recorded choice tree along the current path.
type frame struct {
	options int
	labels  []uint64        // nil when chosen via plain Choose
	skip    []bool          // options collapsed by symmetry/sleep; nil = none
	sleep   map[uint64]bool // sleep set at this node, consulted by children
	hash    uint64          // Mark fingerprint reported before this node
	hasHash bool
	pruned  bool // subtree cut: fingerprint already fully enumerated
	sampled bool // frontier node: random completions, not enumeration
	choice  int  // option taken on the current path
	visit   int  // sampled: completed random completions
}

// effective counts the options actually explored at f.
func (f *frame) effective() int {
	if f.skip == nil {
		return f.options
	}
	n := 0
	for _, s := range f.skip {
		if !s {
			n++
		}
	}
	return n
}

// task explores one subtree sequentially: the frames up to prefixLen are
// fixed (they encode the path from the root to the subtree), everything
// deeper is enumerated depth-first exactly like the original swmr
// explorer, with pruning, reductions and frontier sampling layered on.
type task struct {
	opts      Options
	runFn     func(*Ctx) error
	stack     []frame
	prefixLen int
	budget    int
	explored  map[uint64]bool
	stats     Stats

	// sawSampling poisons exhaustiveness (and with it the soundness of
	// adding new fingerprints to explored) for the rest of the task.
	sawSampling bool

	// per-schedule state
	depth       int   // frames entered on the current run
	pathLen     int   // choices made, including drained ones
	tail        []int // choices made while draining, for replayability
	drain       bool  // past a pruned or sampled node: no new frames
	sampling    bool  // drain with random (vs all-zero) choices
	rng         rng
	pendingHash uint64
	hasPending  bool

	// abort ends the task with an infrastructure failure: a
	// *DivergenceError from choose, or whatever the run handed Ctx.Fail.
	abort error
}

func newTask(o Options, run func(*Ctx) error, prefix []frame, budget int) *task {
	return &task{
		opts:      o,
		runFn:     run,
		stack:     append([]frame(nil), prefix...),
		prefixLen: len(prefix),
		budget:    budget,
		explored:  make(map[uint64]bool),
	}
}

// taskResult is one subtree's outcome, aggregated in subtree order.
type taskResult struct {
	stats     Stats
	exhausted bool
	limitHit  bool
	cx        []int // first violating choice sequence, nil if none
	cxErr     error // what the run returned for cx
	err       error // infrastructure failure (divergence, Ctx.Fail)
}

func (t *task) mark(h uint64) {
	if t.drain || t.abort != nil {
		return
	}
	t.pendingHash, t.hasPending = h, true
}

func (t *task) choose(options int, labels []uint64) int {
	if t.abort != nil {
		return 0
	}
	if t.drain {
		v := 0
		if t.sampling {
			v = t.rng.next(options)
		}
		t.tail = append(t.tail, v)
		t.pathLen++
		return v
	}
	d := t.depth
	if d == len(t.stack) {
		t.push(options, labels)
	}
	f := &t.stack[d]
	if f.options != options || !labelsEqual(f.labels, labels) {
		// The tree is deterministic given the prefix; a mismatch means
		// run is not replayable. The chooser cannot fail, so record the
		// divergence and keep returning in-range choices until run comes
		// back; the task aborts then.
		t.abort = &DivergenceError{Depth: d, Want: f.options, Got: options}
		return 0
	}
	t.hasPending = false
	t.depth++
	t.pathLen++
	if f.sampled {
		t.drain, t.sampling = true, true
		t.rng = newRNG(t.opts.Seed, t.pathFingerprint(d)+uint64(f.visit))
		f.choice = t.rng.next(options)
	} else if f.pruned {
		t.drain = true
	}
	return f.choice
}

// push records a newly reached node.
func (t *task) push(options int, labels []uint64) {
	f := frame{options: options}
	if labels != nil {
		f.labels = append([]uint64(nil), labels...)
	}
	if t.opts.MaxDepth > 0 && t.depth >= t.opts.MaxDepth {
		// Frontier: this subtree is sampled, not enumerated, so nothing
		// at or above it may be recorded as fully explored from here on.
		f.sampled = true
		t.sawSampling = true
		t.stack = append(t.stack, f)
		return
	}
	if t.hasPending {
		f.hash, f.hasHash = t.pendingHash, true
		if !t.opts.NoPrune && t.explored[f.hash] {
			f.pruned = true
			t.stats.Pruned++
			if o := t.opts.Observer; o != nil {
				o.Event("mc.prune", -1, -1, map[string]any{"depth": t.depth})
			}
		}
	}
	if f.labels != nil && !f.pruned {
		sleep := t.sleepFor(f.labels)
		f.sleep = sleep
		skips := 0
		for i, l := range f.labels {
			dup := false
			for j := 0; j < i; j++ {
				if f.labels[j] == l {
					dup = true
					break
				}
			}
			switch {
			case dup:
				t.ensureSkip(&f)[i] = true
				t.stats.SymmetrySkips++
				skips++
			case sleep != nil && sleep[l]:
				t.ensureSkip(&f)[i] = true
				t.stats.SleepSkips++
				skips++
			}
		}
		if skips == options {
			// Every option asleep: classic sleep-set search would
			// backtrack here, but the run is mid-execution and needs a
			// value, so wake the first option (exploring more than
			// necessary is always sound).
			f.skip[0] = false
			t.stats.SleepSkips--
		}
		for f.skip != nil && f.skip[f.choice] {
			f.choice++
		}
	}
	t.stack = append(t.stack, f)
}

func (t *task) ensureSkip(f *frame) []bool {
	if f.skip == nil {
		f.skip = make([]bool, f.options)
	}
	return f.skip
}

// sleepFor computes the sleep set for a child of the current deepest
// frame: labels that were asleep at the parent or already explored as
// earlier siblings, filtered to those independent of the edge taken.
func (t *task) sleepFor(labels []uint64) map[uint64]bool {
	if t.opts.Independent == nil || t.depth == 0 {
		return nil
	}
	p := &t.stack[t.depth-1]
	if p.labels == nil {
		return nil
	}
	chosen := p.labels[p.choice]
	var sleep map[uint64]bool
	add := func(l uint64) {
		if t.opts.Independent(l, chosen) {
			if sleep == nil {
				sleep = make(map[uint64]bool)
			}
			sleep[l] = true
		}
	}
	for l := range p.sleep {
		add(l)
	}
	for j := 0; j < p.choice; j++ {
		if p.skip == nil || !p.skip[j] {
			add(p.labels[j])
		}
	}
	return sleep
}

// pathFingerprint hashes the choices leading to (but excluding) depth d,
// seeding frontier sampling so each frontier node gets its own stream.
func (t *task) pathFingerprint(d int) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < d; i++ {
		h = (h ^ uint64(t.stack[i].choice)) * 1099511628211
	}
	return h
}

// runOnce executes one schedule against the current stack state.
func (t *task) runOnce() error {
	t.depth = 0
	t.pathLen = 0
	t.tail = t.tail[:0]
	t.drain, t.sampling = false, false
	t.hasPending = false
	return t.runFn(&Ctx{t: t})
}

// currentChoices snapshots the full choice sequence of the schedule that
// just ran: the frames entered plus any drained tail.
func (t *task) currentChoices() []int {
	out := make([]int, 0, t.depth+len(t.tail))
	for i := 0; i < t.depth; i++ {
		out = append(out, t.stack[i].choice)
	}
	return append(out, t.tail...)
}

// backtrack advances to the next unexplored path in the subtree,
// reporting false when the subtree is exhausted.
func (t *task) backtrack() bool {
	// Drop the unexplored tail recorded beyond this run's depth, then
	// advance the deepest choice with options left.
	t.stack = t.stack[:t.depth]
	for len(t.stack) > t.prefixLen {
		f := &t.stack[len(t.stack)-1]
		switch {
		case f.sampled:
			f.visit++
			if f.visit < t.opts.Samples {
				return true
			}
		case f.pruned:
			// One pass only; its fingerprint is already in explored.
		default:
			next := f.choice + 1
			for next < f.options && f.skip != nil && f.skip[next] {
				next++
			}
			if next < f.options {
				f.choice = next
				return true
			}
			if f.hasHash && !t.sawSampling && !t.opts.NoPrune {
				// The node's whole subtree has now been enumerated (up
				// to sound reductions), so any later schedule reaching
				// the same fingerprint can be cut. Sampling anywhere in
				// the task poisons this: "exhausted" would be a lie.
				t.explored[f.hash] = true
			}
		}
		t.stack = t.stack[:len(t.stack)-1]
	}
	return false
}

// explore runs the task's subtree to exhaustion, budget, violation or
// divergence.
func (t *task) explore() taskResult {
	for {
		if t.budget <= 0 {
			return taskResult{stats: t.stats, limitHit: true}
		}
		err := t.runOnce()
		if t.abort != nil {
			return taskResult{stats: t.stats, err: t.abort}
		}
		if err != nil {
			return taskResult{stats: t.stats, cx: t.currentChoices(), cxErr: err}
		}
		t.stats.Schedules++
		t.budget--
		if t.pathLen > t.stats.MaxDepth {
			t.stats.MaxDepth = t.pathLen
		}
		if t.sampling {
			t.stats.Sampled++
			if o := t.opts.Observer; o != nil {
				o.Event("mc.sample", -1, -1, map[string]any{"depth": t.pathLen})
			}
		}
		if o := t.opts.Observer; o != nil {
			o.Event("mc.schedule", -1, -1, map[string]any{"depth": t.pathLen})
		}
		if !t.backtrack() {
			return taskResult{stats: t.stats, exhausted: !t.sawSampling}
		}
	}
}

func labelsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// rng is a self-contained xorshift64* stream, so frontier sampling does
// not depend on math/rand implementation details across Go versions.
type rng uint64

func newRNG(seed int64, mix uint64) rng {
	s := (uint64(seed)+mix)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
	if s == 0 {
		s = 0x2545f4914f6cdd1d
	}
	return rng(s)
}

func (r *rng) next(n int) int {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = rng(x)
	return int((x * 0x2545f4914f6cdd1d) >> 33 % uint64(n))
}

// Explore model-checks run over every choice sequence it can make. run is
// invoked once per schedule with a fresh Ctx and must build a fresh
// system, execute it, and return nil for a passing schedule or an error
// for a property violation (wrapped with context — it becomes the
// counterexample's Err).
//
// The search is exhaustive for terminating systems within
// Options.MaxSchedules (and Options.MaxDepth, when set); the Result
// reports whether the space was exhausted, the first violating schedule
// in depth-first order shrunk to a minimal counterexample, and the
// schedule/prune/depth counters. The returned error is non-nil only for
// infrastructure failures — a *DivergenceError when run is not a
// deterministic function of its choices, or the error a schedule handed to
// Ctx.Fail — and the Result still carries the counters accumulated up to
// that point.
//
// The result is byte-identical for every Options.Workers value: the tree
// is split at its first branching node, the subtrees are searched
// concurrently with deterministically divided budgets, and aggregation
// runs in subtree order.
func Explore(opts Options, run func(*Ctx) error) (*Result, error) {
	o := opts.withDefaults()

	// Probe: one run down the all-first path records enough of the tree
	// to find the first branching node, where the parallel split happens.
	probe := newTask(o, run, nil, 1)
	err := probe.runOnce()
	if probe.abort != nil {
		return &Result{Stats: probe.stats}, probe.abort
	}
	if err != nil {
		// The very first schedule in depth-first order violates; no
		// search order reports anything earlier.
		return finish(o, run, &Result{Stats: probe.stats}, probe.currentChoices(), err)
	}

	split := -1
	for d := 0; d < probe.depth; d++ {
		f := &probe.stack[d]
		if f.sampled {
			break // beyond the frontier nothing is enumerated
		}
		if f.effective() > 1 {
			split = d
			break
		}
	}

	if split < 0 {
		// Single enumerable path: one task explores the whole tree. The
		// probe is discarded — the task re-runs its path as the first
		// schedule, keeping counts identical to the split below.
		t := newTask(o, run, nil, o.MaxSchedules)
		return aggregate(o, run, []taskResult{t.explore()})
	}

	// Split at the first branching node: one subtree per effective option,
	// searched via par.Map with the budget divided deterministically. The
	// split happens at every worker count (workers=1 just runs the
	// subtrees sequentially in order), so budget distribution — and with
	// it every counter — is independent of the worker count. Each task
	// owns its explored set; fingerprints do not cross subtree boundaries
	// (sharing them would make pruning depend on scheduling).
	root := probe.stack[split]
	var subs []int
	for i := 0; i < root.options; i++ {
		if root.skip == nil || !root.skip[i] {
			subs = append(subs, i)
		}
	}
	prefix := probe.stack[:split+1]
	base, rem := o.MaxSchedules/len(subs), o.MaxSchedules%len(subs)
	trs, perr := par.Map(o.Workers, len(subs), func(j int) taskResult {
		pf := append([]frame(nil), prefix...)
		pf[split].choice = subs[j]
		budget := base
		if j < rem {
			budget++
		}
		return newTask(o, run, pf, budget).explore()
	})
	if perr != nil {
		// A panicking run function propagates like a sequential panic.
		panic(perr)
	}
	return aggregate(o, run, trs)
}

// aggregate folds subtree results in subtree order, mirroring what a
// sequential depth-first search would have reported: counters of every
// subtree before the first failing one, then that failure.
func aggregate(o Options, run func(*Ctx) error, trs []taskResult) (*Result, error) {
	res := &Result{Exhausted: true}
	for i := range trs {
		tr := &trs[i]
		res.Stats.add(tr.stats)
		if tr.err != nil {
			return res, tr.err
		}
		if tr.cx != nil {
			res.Exhausted = false
			return finish(o, run, res, tr.cx, tr.cxErr)
		}
		res.LimitHit = res.LimitHit || tr.limitHit
		res.Exhausted = res.Exhausted && tr.exhausted && !tr.limitHit
	}
	if o.Observer != nil {
		o.Observer.Event("mc.done", -1, -1, map[string]any{
			"schedules": res.Schedules, "pruned": res.Pruned,
			"sampled": res.Sampled, "max_depth": res.Stats.MaxDepth,
			"symmetry_skips": res.SymmetrySkips, "sleep_skips": res.SleepSkips,
		})
	}
	return res, nil
}

// finish attaches a counterexample, shrunk.
func finish(o Options, run func(*Ctx) error, res *Result, cx []int, cxErr error) (*Result, error) {
	res.Exhausted = false
	c := &Counterexample{FirstFound: append([]int(nil), cx...)}
	c.Choices, c.Err = shrink(run, cx, cxErr)
	res.Counterexample = c
	if o.Observer != nil {
		o.Observer.Event("mc.violation", -1, -1, map[string]any{
			"choices": FormatChoices(c.Choices), "len": len(c.Choices),
		})
		o.Observer.Event("mc.done", -1, -1, map[string]any{
			"schedules": res.Schedules, "pruned": res.Pruned,
			"sampled": res.Sampled, "max_depth": res.Stats.MaxDepth,
			"symmetry_skips": res.SymmetrySkips, "sleep_skips": res.SleepSkips,
		})
	}
	return res, nil
}

// shrinkBudget caps the replays one shrink may spend. The spaces mc
// explores are small (exhaustive search got here first), so the cap only
// guards pathological run functions; within it the loop runs to fixpoint
// and the result is locally minimal.
const shrinkBudget = 10000

// shrink reduces a violating choice sequence to a locally minimal one:
// no trailing choice can be dropped and no single choice lowered without
// losing the violation. Replays are deterministic, so the result is too.
func shrink(run func(*Ctx) error, first []int, firstErr error) ([]int, error) {
	replays := 0
	try := func(cand []int) (error, []int) {
		replays++
		return replayNorm(cand, run)
	}

	// Normalize the found sequence (clamp, truncate, strip zero tail).
	best, bestErr := append([]int(nil), first...), firstErr
	if err, norm := try(best); err != nil {
		best, bestErr = norm, err
	}

	for changed := true; changed && replays < shrinkBudget; {
		changed = false
		// Drop the tail one choice at a time.
		for len(best) > 0 && replays < shrinkBudget {
			err, norm := try(best[:len(best)-1])
			if err == nil {
				break
			}
			best, bestErr, changed = norm, err, true
		}
		// Lower individual choices, smallest value first.
		for i := 0; i < len(best) && replays < shrinkBudget; i++ {
			for v := 0; v < best[i]; v++ {
				cand := append([]int(nil), best...)
				cand[i] = v
				err, norm := try(cand)
				if err != nil {
					best, bestErr, changed = norm, err, true
					break
				}
				if replays >= shrinkBudget {
					break
				}
			}
		}
	}
	return best, bestErr
}
