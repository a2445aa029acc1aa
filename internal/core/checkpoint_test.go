package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// ckTestAlg is a deterministic min-flooding algorithm with a count of the
// Deliver calls made on this instance (to observe that Resume re-executes
// the journaled rounds).
type ckTestAlg struct {
	est      int
	rounds   int
	delivers int
}

func ckFactory(rounds int) Factory {
	return func(me PID, n int, input Value) Algorithm {
		return &ckTestAlg{est: input.(int), rounds: rounds}
	}
}

func (a *ckTestAlg) Emit(r int) Message { return a.est }

func (a *ckTestAlg) Deliver(r int, msgs Inbox, suspects Set) (Value, bool) {
	a.delivers++
	msgs.ForEach(func(_ PID, m Message) {
		if v := m.(int); v < a.est {
			a.est = v
		}
	})
	if r >= a.rounds {
		return a.est, true
	}
	return nil, false
}

// ckOracle is a deterministic adversary: it crashes process 0 at round 1 and
// has every live process suspect exactly the crashed set.
func ckOracle(n int) Oracle {
	return OracleFunc(func(r int, active Set) RoundPlan {
		crashes := NewSet(n)
		if r == 1 {
			crashes.Add(0)
		}
		dead := FullSet(n).Diff(active.Diff(crashes))
		sus := make([]Set, n)
		for i := range sus {
			sus[i] = dead.Clone()
		}
		return RoundPlan{Suspects: sus, Crashes: crashes}
	})
}

func ckInputs(n int) []Value {
	in := make([]Value, n)
	for i := range in {
		in[i] = n - i // min lives on the crashed process's survivors
	}
	return in
}

func sameResult(t *testing.T, a, b *Result) {
	t.Helper()
	if len(a.Outputs) != len(b.Outputs) {
		t.Fatalf("outputs differ: %v vs %v", a.Outputs, b.Outputs)
	}
	for p, v := range a.Outputs {
		if b.Outputs[p] != v {
			t.Fatalf("p%d decided %v vs %v", p, v, b.Outputs[p])
		}
	}
	for p, r := range a.DecidedAt {
		if b.DecidedAt[p] != r {
			t.Fatalf("p%d decided at %d vs %d", p, r, b.DecidedAt[p])
		}
	}
	if a.Rounds != b.Rounds {
		t.Fatalf("rounds %d vs %d", a.Rounds, b.Rounds)
	}
	if !a.Crashed.Equal(b.Crashed) {
		t.Fatalf("crashed %s vs %s", a.Crashed, b.Crashed)
	}
	ta, err := json.Marshal(a.Trace)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := json.Marshal(b.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if string(ta) != string(tb) {
		t.Fatalf("traces differ:\n%s\nvs\n%s", ta, tb)
	}
}

func TestKillAndResumeIdenticalTrace(t *testing.T) {
	const n, rounds = 5, 4
	inputs := ckInputs(n)

	want, err := Run(n, inputs, ckFactory(rounds), ckOracle(n))
	if err != nil {
		t.Fatal(err)
	}

	for halt := 1; halt < rounds; halt++ {
		dir := filepath.Join(t.TempDir(), "ck")
		_, err := Run(n, inputs, ckFactory(rounds), ckOracle(n),
			WithCheckpointing(dir, CheckpointOptions{}),
			WithHaltAfterRound(halt))
		var he *HaltError
		if !errors.As(err, &he) || he.Round != halt {
			t.Fatalf("halt %d: got %v, want *HaltError", halt, err)
		}

		got, err := Resume(dir, ckFactory(rounds), ckOracle(n))
		if err != nil {
			t.Fatalf("resume after halt %d: %v", halt, err)
		}
		sameResult(t, want, got)
	}
}

// TestResumeWithoutSnapshotReplaysAll: there is no snapshot to start from,
// so every resumed instance re-executes each journaled round.
func TestResumeWithoutSnapshotReplaysAll(t *testing.T) {
	const n, rounds = 4, 5
	inputs := ckInputs(n)
	dir := filepath.Join(t.TempDir(), "ck")

	_, err := Run(n, inputs, ckFactory(rounds), ckOracle(n),
		WithCheckpointing(dir, CheckpointOptions{}),
		WithHaltAfterRound(3))
	var he *HaltError
	if !errors.As(err, &he) {
		t.Fatalf("got %v, want *HaltError", err)
	}
	var algs []*ckTestAlg
	countingFactory := func(me PID, n int, input Value) Algorithm {
		a := &ckTestAlg{est: input.(int), rounds: rounds}
		algs = append(algs, a)
		return a
	}
	got, err := Resume(dir, countingFactory, ckOracle(n))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(n, inputs, ckFactory(rounds), ckOracle(n))
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, want, got)
	for i, a := range algs {
		if PID(i) == 0 {
			continue
		}
		if a.delivers != rounds {
			t.Fatalf("p%d saw %d delivers after replay resume, want %d", i, a.delivers, rounds)
		}
	}
}

func TestResumeCompletedRun(t *testing.T) {
	const n, rounds = 4, 3
	inputs := ckInputs(n)
	dir := filepath.Join(t.TempDir(), "ck")

	want, err := Run(n, inputs, ckFactory(rounds), ckOracle(n),
		WithCheckpointing(dir, CheckpointOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Resume(dir, ckFactory(rounds), ckOracle(n))
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, want, got)
}

func TestResumeAfterHaltAtFinalRound(t *testing.T) {
	// Killed after the deciding round but before the end marker: Resume
	// must settle the log and reconstruct the finished run.
	const n, rounds = 4, 3
	inputs := ckInputs(n)
	dir := filepath.Join(t.TempDir(), "ck")

	_, err := Run(n, inputs, ckFactory(rounds), ckOracle(n),
		WithCheckpointing(dir, CheckpointOptions{}),
		WithHaltAfterRound(rounds))
	var he *HaltError
	if !errors.As(err, &he) {
		t.Fatalf("got %v, want *HaltError", err)
	}
	want, err := Run(n, inputs, ckFactory(rounds), ckOracle(n))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Resume(dir, ckFactory(rounds), ckOracle(n))
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, want, got)
}

func TestResumeDivergentOracle(t *testing.T) {
	const n, rounds = 4, 4
	inputs := ckInputs(n)
	dir := filepath.Join(t.TempDir(), "ck")

	_, err := Run(n, inputs, ckFactory(rounds), ckOracle(n),
		WithCheckpointing(dir, CheckpointOptions{}),
		WithHaltAfterRound(2))
	var he *HaltError
	if !errors.As(err, &he) {
		t.Fatalf("got %v, want *HaltError", err)
	}

	before := logBytes(t, dir)

	// A benign oracle (no crash at round 1) does not reproduce the journal;
	// one that suspects p1 in round 2 parts from it after a replayed round.
	benign := OracleFunc(func(r int, active Set) RoundPlan {
		sus := make([]Set, n)
		for i := range sus {
			sus[i] = FullSet(n).Diff(active)
		}
		return RoundPlan{Suspects: sus}
	})
	late := OracleFunc(func(r int, active Set) RoundPlan {
		plan := ckOracle(n).Plan(r, active)
		if r == 2 {
			for i := range plan.Suspects {
				plan.Suspects[i].Add(1)
			}
		}
		return plan
	})
	for _, tc := range []struct {
		oracle Oracle
		round  int
	}{{benign, 1}, {late, 2}} {
		_, err = Resume(dir, ckFactory(rounds), tc.oracle)
		var de *DivergenceError
		if !errors.As(err, &de) || de.Round != tc.round {
			t.Fatalf("got %v, want *DivergenceError at round %d", err, tc.round)
		}
		if !bytes.Equal(logBytes(t, dir), before) {
			t.Fatalf("a divergent resume (round %d) changed the log", tc.round)
		}
	}
}

// logBytes concatenates a checkpoint log's segment files.
func logBytes(t *testing.T, dir string) []byte {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no log files in %s: %v", dir, err)
	}
	var all []byte
	for _, seg := range segs {
		b, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, b...)
	}
	return all
}

// TestResumePastKillPoint resumes a log journaled through round 2 with a
// kill point at round 1: the run halts at the end of the replay, with no
// new round and the log unchanged. A completed log ignores the kill point
// and resumes to its final Result.
func TestResumePastKillPoint(t *testing.T) {
	const n, rounds = 5, 4
	inputs := ckInputs(n)
	want, err := Run(n, inputs, ckFactory(rounds), ckOracle(n))
	if err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "ck")
	_, err = Run(n, inputs, ckFactory(rounds), ckOracle(n),
		WithCheckpointing(dir, CheckpointOptions{}), WithHaltAfterRound(2))
	var he *HaltError
	if !errors.As(err, &he) || he.Round != 2 {
		t.Fatalf("got %v, want *HaltError after round 2", err)
	}
	before := logBytes(t, dir)
	_, err = Resume(dir, ckFactory(rounds), ckOracle(n), WithHaltAfterRound(1))
	if !errors.As(err, &he) || he.Round != 2 {
		t.Fatalf("got %v, want *HaltError after round 2", err)
	}
	if !bytes.Equal(logBytes(t, dir), before) {
		t.Fatal("a resume halted inside its replay changed the log")
	}
	got, err := Resume(dir, ckFactory(rounds), ckOracle(n))
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, want, got)

	done := logBytes(t, dir)
	got, err = Resume(dir, ckFactory(rounds), ckOracle(n), WithHaltAfterRound(1))
	if err != nil {
		t.Fatalf("resume of a completed log with a kill point: %v", err)
	}
	sameResult(t, want, got)
	if !bytes.Equal(logBytes(t, dir), done) {
		t.Fatal("resuming a completed log changed it")
	}
}

// TestResumeHookStreamEqualsUninterrupted pins what an observer of a
// resumed run sees: the run is executed, not restored, so the engine events
// of the replayed rounds arrive like any others. With phase durations
// zeroed by a frozen clock, the resumed stream is the uninterrupted one
// plus a single recovery.resume event before round 1.
func TestResumeHookStreamEqualsUninterrupted(t *testing.T) {
	const n, rounds = 5, 4
	inputs := ckInputs(n)
	frozen := WithClock(func() time.Time { return time.Unix(0, 0) })
	stream := func(run func(o Option) error) []string {
		var buf bytes.Buffer
		log := obs.NewEventLog(&buf)
		if err := run(WithObserver(log)); err != nil {
			t.Fatal(err)
		}
		return strings.SplitAfter(buf.String(), "\n")
	}
	want := stream(func(o Option) error {
		_, err := Run(n, inputs, ckFactory(rounds), ckOracle(n), o, frozen)
		return err
	})
	for halt := 1; halt < rounds; halt++ {
		dir := filepath.Join(t.TempDir(), "ck")
		if _, err := Run(n, inputs, ckFactory(rounds), ckOracle(n),
			WithCheckpointing(dir, CheckpointOptions{}), WithHaltAfterRound(halt)); err == nil {
			t.Fatal("want a halt")
		}
		got := stream(func(o Option) error {
			_, err := Resume(dir, ckFactory(rounds), ckOracle(n), o, frozen)
			return err
		})
		if len(got) != len(want)+1 || !strings.Contains(got[1], `"kind":"recovery.resume"`) {
			t.Fatalf("halt %d: want run_start, one recovery.resume, then the run; got\n%s", halt, strings.Join(got[:min(3, len(got))], ""))
		}
		got = append(got[:1], got[2:]...)
		if strings.Join(got, "") != strings.Join(want, "") {
			t.Fatalf("halt %d: resumed hook stream differs:\n%s\nvs uninterrupted\n%s", halt, strings.Join(got, ""), strings.Join(want, ""))
		}
	}
}

// TestCheckpointMetaRoundTrip: every supported input type comes back with
// its Go type, and an unsupported one is refused before a log is created.
func TestCheckpointMetaRoundTrip(t *testing.T) {
	in := []Value{3, int64(4), 2.5, "x", true, []int{1, 2}}
	b, err := encodeMeta(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := decodeMeta(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("meta round trip: %#v → %#v", in, out)
	}
	dir := filepath.Join(t.TempDir(), "ck")
	nop := func(PID, int, Value) Algorithm { return nopAlgorithm{} }
	if _, err := Run(1, []Value{struct{}{}}, nop, ckOracle(1), WithCheckpointing(dir, CheckpointOptions{})); err == nil {
		t.Fatal("a struct input was checkpointed")
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("a refused checkpoint left %s behind (%v)", dir, err)
	}
}

func TestResumeSurvivesTornTail(t *testing.T) {
	const n, rounds = 5, 4
	inputs := ckInputs(n)
	dir := filepath.Join(t.TempDir(), "ck")

	_, err := Run(n, inputs, ckFactory(rounds), ckOracle(n),
		WithCheckpointing(dir, CheckpointOptions{}),
		WithHaltAfterRound(2))
	var he *HaltError
	if !errors.As(err, &he) {
		t.Fatalf("got %v, want *HaltError", err)
	}

	// A real kill can tear the last record: chop bytes off the segment.
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	last := segs[len(segs)-1]
	b, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last, b[:len(b)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := Resume(dir, ckFactory(rounds), ckOracle(n))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(n, inputs, ckFactory(rounds), ckOracle(n))
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, want, got)
}

func TestResumeEmptyDirFails(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nothing")
	if _, err := Resume(dir, ckFactory(2), ckOracle(3)); err == nil {
		t.Fatal("resume of an empty log should fail")
	}
}

func TestTraceValidate(t *testing.T) {
	const n, rounds = 5, 3
	res, err := Run(n, ckInputs(n), ckFactory(rounds), ckOracle(n))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Trace.ValidateFailStop(); err != nil {
		t.Fatalf("engine trace failed validation: %v", err)
	}

	// A trace where a departed process re-enters Active passes the structural
	// check but not the fail-stop one.
	revived := *res.Trace
	revived.Rounds = append([]RoundRecord(nil), res.Trace.Rounds...)
	last := &revived.Rounds[len(revived.Rounds)-1]
	cp := *last
	cp.R++
	cp.Active = cp.Active.Clone()
	cp.Active.Add(0)
	cp.Suspects = append([]Set(nil), cp.Suspects...)
	cp.Deliver = append([]Set(nil), cp.Deliver...)
	cp.Suspects[0] = NewSet(n)
	cp.Deliver[0] = FullSet(n)
	revived.Rounds = append(revived.Rounds, cp)
	if err := revived.Validate(); err != nil {
		t.Fatalf("recovery-shaped trace failed structural validation: %v", err)
	}
	if err := revived.ValidateFailStop(); err == nil {
		t.Fatal("revived process passed fail-stop validation")
	}

	// Break S ∪ D = S for one process and revalidate.
	bad := *res.Trace
	rec := bad.Round(2)
	p := rec.Active.Members()[0]
	rec.Deliver[p] = NewSet(n)
	rec.Suspects[p] = NewSet(n)
	if err := bad.Validate(); err == nil {
		t.Fatal("tampered trace passed validation")
	}
}
