package trace_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/trace"
)

// TestEngineStreamsArePinned pins, by content, what the engine tells an
// observer. Two runs of FloodMin(2) under Crash(6, 2, 1) — one complete,
// one cut short by the round limit so run_end carries an error — are
// observed through one Multi(EventLog, Tracer, Metrics) on a clock that
// moves 1µs per read. The JSONL (phase lines included), the Perfetto
// export and the Metrics snapshot are each pinned by SHA-256; every engine
// kind must occur in the JSONL.
func TestEngineStreamsArePinned(t *testing.T) {
	var jsonl bytes.Buffer
	log, tr, m := obs.NewEventLog(&jsonl), trace.New(), obs.NewMetrics()
	var tick int64
	clock := func() time.Time {
		tick++
		return time.Unix(0, tick*1000)
	}
	ob := obs.Multi(log, tr, m)
	n := 6
	inputs := make([]core.Value, n)
	for i := range inputs {
		inputs[i] = (i*7 + 3) % n
	}
	run := func(opts ...core.Option) error {
		opts = append([]core.Option{core.WithObserver(ob), core.WithClock(clock)}, opts...)
		_, err := core.Run(n, inputs, agreement.FloodMin(2), adversary.Crash(n, 2, 1), opts...)
		return err
	}
	if err := run(); err != nil {
		t.Fatal(err)
	}
	if err := run(core.WithMaxRounds(1)); !errors.Is(err, core.ErrMaxRounds) {
		t.Fatalf("cut run: err = %v, want ErrMaxRounds", err)
	}
	if err := log.Err(); err != nil {
		t.Fatal(err)
	}

	seen := map[string]bool{}
	for _, line := range bytes.Split(bytes.TrimSpace(jsonl.Bytes()), []byte("\n")) {
		var rec struct {
			Ev    string `json:"ev"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("bad line %s: %v", line, err)
		}
		seen[rec.Ev] = true
		if rec.Error != "" {
			seen["run_end+error"] = true
		}
	}
	for _, ev := range []string{"run_start", "round_start", "emit", "deliver", "suspect", "crash", "decide", "run_end", "phase", "run_end+error"} {
		if !seen[ev] {
			t.Errorf("no %q line in the JSONL", ev)
		}
	}

	perfetto, err := tr.Perfetto()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := m.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"jsonl", jsonl.Bytes(), "df040b25a35a229a5f871d5fc780ea7bc0f3ccc62b9f0e43649d93fd89cbc2cb"},
		{"perfetto", perfetto, "4cb3755e1f5a267dd2f22373a682766e086c7e0df746d9fa06d987e1b2d56f71"},
		{"metrics", snap, "48d61c1deb47f209cb419e9beea08b3a0c143c63e01a9346673b3210d695f949"},
	} {
		sum := sha256.Sum256(c.data)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s sha256 = %s, want %s", c.name, got, c.want)
		}
	}
}
