package abd

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/msgnet"
)

// workload: the writer (p0) writes values 100,200,...; everyone else reads
// `reads` times.
func workload(writes, reads int) Script {
	return func(r *Register) error {
		if r.Writer() {
			for k := 1; k <= writes; k++ {
				if err := r.Write(k * 100); err != nil {
					return err
				}
			}
			return nil
		}
		for k := 0; k < reads; k++ {
			if _, err := r.Read(); err != nil {
				return err
			}
		}
		return nil
	}
}

func TestAtomicRegisterFailureFree(t *testing.T) {
	n, f := 5, 2
	for seed := int64(0); seed < 30; seed++ {
		out, err := Run(n, f, msgnet.Config{Chooser: core.Seeded(seed)}, workload(4, 3))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := CheckAtomic(out.Log); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// 4 writes + 4 readers × 3 reads.
		if len(out.Log) != 4+(n-1)*3 {
			t.Fatalf("seed %d: %d ops logged", seed, len(out.Log))
		}
	}
}

func TestAtomicRegisterWithCrashes(t *testing.T) {
	n, f := 5, 2
	for seed := int64(0); seed < 20; seed++ {
		cfg := msgnet.Config{
			Chooser: core.Seeded(seed),
			Crash:   map[core.PID]int{3: 25, 4: int(seed%40) + 5},
		}
		out, err := Run(n, f, cfg, workload(3, 3))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := CheckAtomic(out.Log); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !out.Crashed.Equal(core.SetOf(n, 3, 4)) {
			t.Fatalf("seed %d: crashed = %s", seed, out.Crashed)
		}
	}
}

func TestReadSeesCompletedWrite(t *testing.T) {
	// Sequential: write everything, then read — the read must return the
	// last write.
	n, f := 3, 1
	out, err := Run(n, f, msgnet.Config{Chooser: core.Seeded(7)}, func(r *Register) error {
		if r.Writer() {
			for k := 1; k <= 3; k++ {
				if err := r.Write(k); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckAtomic(out.Log); err != nil {
		t.Fatal(err)
	}
	// Second phase in a fresh run: reads concurrent with nothing must
	// still be mutually consistent (monotone seqs per reader).
	out2, err := Run(n, f, msgnet.Config{Chooser: core.Seeded(8)}, workload(2, 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckAtomic(out2.Log); err != nil {
		t.Fatal(err)
	}
}

func TestInitialReadReturnsBottom(t *testing.T) {
	n, f := 3, 1
	out, err := Run(n, f, msgnet.Config{Chooser: core.Seeded(1)}, func(r *Register) error {
		if r.Writer() {
			return nil
		}
		v, err := r.Read()
		if err != nil {
			return err
		}
		if v != nil {
			return fmt.Errorf("unexpected initial value %v", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range out.Log {
		if op.Kind == "read" && op.Seq != 0 {
			t.Fatalf("read before any write returned seq %d", op.Seq)
		}
	}
}

func TestNonWriterCannotWrite(t *testing.T) {
	_, err := Run(3, 1, msgnet.Config{Chooser: core.Seeded(2)}, func(r *Register) error {
		if !r.Writer() {
			if err := r.Write(1); err == nil {
				return fmt.Errorf("non-writer write accepted")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(4, 2, msgnet.Config{}, workload(1, 1)); err == nil {
		t.Fatal("2f ≥ n must be rejected")
	}
	if _, err := Run(5, 1, msgnet.Config{Crash: map[core.PID]int{1: 0, 2: 0}}, workload(1, 1)); err == nil {
		t.Fatal("crashes > f must be rejected")
	}
}

func TestCheckAtomicDetectsViolations(t *testing.T) {
	w1 := Op{Proc: 0, Kind: "write", Seq: 1, Val: "a", Start: 1, End: 5}
	w2 := Op{Proc: 0, Kind: "write", Seq: 2, Val: "b", Start: 6, End: 9}
	good := []Op{w1, w2,
		{Proc: 1, Kind: "read", Seq: 2, Val: "b", Start: 10, End: 12},
	}
	if err := CheckAtomic(good); err != nil {
		t.Fatal(err)
	}
	stale := []Op{w1, w2,
		{Proc: 1, Kind: "read", Seq: 1, Val: "a", Start: 10, End: 12},
	}
	if err := CheckAtomic(stale); err == nil || !strings.Contains(err.Error(), "missed completed write") {
		t.Fatalf("err = %v", err)
	}
	future := []Op{w1, w2,
		{Proc: 1, Kind: "read", Seq: 2, Val: "b", Start: 2, End: 4},
	}
	if err := CheckAtomic(future); err == nil || !strings.Contains(err.Error(), "future") {
		t.Fatalf("err = %v", err)
	}
	inversion := []Op{w1, w2,
		{Proc: 1, Kind: "read", Seq: 2, Val: "b", Start: 6, End: 7},
		{Proc: 2, Kind: "read", Seq: 1, Val: "a", Start: 8, End: 9},
	}
	if err := CheckAtomic(inversion); err == nil || !strings.Contains(err.Error(), "inversion") {
		t.Fatalf("err = %v", err)
	}
	wrongVal := []Op{w1,
		{Proc: 1, Kind: "read", Seq: 1, Val: "zzz", Start: 6, End: 7},
	}
	if err := CheckAtomic(wrongVal); err == nil {
		t.Fatal("wrong value undetected")
	}
}
