package exp

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/swmr"
)

// TestGoldenDetectorFromKSet pins one seeded fault-free run of the
// Theorem 3.3 construction, recorded before its trace assembly moved to
// core.AssembleRounds.
func TestGoldenDetectorFromKSet(t *testing.T) {
	tr, err := DetectorFromKSet(5, 2, 3, swmr.Config{Chooser: swmr.Seeded(7)})
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("%x", sha256.Sum256([]byte(tr.String())))
	const want = "0287433d3490888fce50d3daaa2e2e2d81482969021396824e75c317f67444ae"
	if got != want {
		t.Fatalf("got  %s\nwant %s\n%s", got, want, tr)
	}
}

// TestDetectorFromKSetWithCrash: a process the scheduler crashes is
// inactive from the round it missed — the private assembly used to index
// its empty record and panic.
func TestDetectorFromKSetWithCrash(t *testing.T) {
	tr, err := DetectorFromKSet(3, 2, 2, swmr.Config{Crash: map[core.PID]int{0: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 {
		t.Fatalf("trace has %d rounds, want 2\n%s", tr.Len(), tr)
	}
	for r := 1; r <= 2; r++ {
		rec := tr.Round(r)
		if !rec.Active.Equal(core.SetOf(3, 1, 2)) || !rec.Crashed.Equal(core.SetOf(3, 0)) {
			t.Fatalf("round %d: active=%s crashed=%s, want {1,2} and {0}\n%s", r, rec.Active, rec.Crashed, tr)
		}
	}
}

var update = flag.Bool("update", false, "rewrite testdata/quick_tables.golden from the current tables")

// TestGoldenQuickTables pins the rendered text of every experiment table
// in quick mode, so a change that moves any fixed-seed experiment output
// fails `go test ./...` and not only the end-to-end benchmark's audit, and
// says which lines moved. Regenerate with
// `go test ./internal/exp -run TestGoldenQuickTables -update`.
func TestGoldenQuickTables(t *testing.T) {
	var b bytes.Buffer
	for _, r := range All() {
		table, err := r.Run(true)
		if err != nil {
			t.Fatalf("%s: %v", r.ID, err)
		}
		table.Fprint(&b)
	}
	const path = "testdata/quick_tables.golden"
	if *update {
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Fatalf("quick tables differ from %s (rerun with -update to accept):\n%s", path, firstDiff(want, b.Bytes()))
	}
}

// firstDiff renders the first five lines where got departs from want.
func firstDiff(want, got []byte) string {
	w, g := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	line := func(ls []string, i int) string {
		if i < len(ls) {
			return ls[i]
		}
		return "(end of file)"
	}
	var sb strings.Builder
	for i, n := 0, 0; n < 5 && (i < len(w) || i < len(g)); i++ {
		if a, b := line(w, i), line(g, i); a != b {
			fmt.Fprintf(&sb, "line %d\n  want %s\n  got  %s\n", i+1, a, b)
			n++
		}
	}
	return sb.String()
}
