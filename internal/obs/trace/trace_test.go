package trace_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/obs/trace"
)

// minAlg decides the minimum input it has heard by round 2.
type minAlg struct {
	min core.Value
}

func minFactory(me core.PID, n int, input core.Value) core.Algorithm {
	return &minAlg{min: input}
}

func (a *minAlg) Emit(r int) core.Message { return a.min }

func (a *minAlg) Deliver(r int, msgs map[core.PID]core.Message, suspects core.Set) (core.Value, bool) {
	for _, m := range msgs {
		if v := m.(int); v < a.min.(int) {
			a.min = v
		}
	}
	if r >= 2 {
		return a.min, true
	}
	return nil, false
}

// crashOneOracle runs round 1 clean, then crashes process n-1 at round 2
// and keeps it suspected by every live process from then on.
func crashOneOracle(n int) core.Oracle {
	return core.OracleFunc(func(r int, active core.Set) core.RoundPlan {
		plan := core.RoundPlan{Suspects: make([]core.Set, n)}
		for i := 0; i < n; i++ {
			if r >= 2 {
				plan.Suspects[i] = core.SetOf(n, core.PID(n-1))
			} else {
				plan.Suspects[i] = core.SetOf(n)
			}
		}
		if r == 2 {
			plan.Crashes = core.SetOf(n, core.PID(n-1))
		}
		return plan
	})
}

// traceOneRun executes the reference run under a fresh Tracer and returns
// the Perfetto bytes.
func traceOneRun(t *testing.T) []byte {
	t.Helper()
	tr := trace.New()
	inputs := []core.Value{3, 1, 2, 0}
	_, err := core.Run(4, inputs, minFactory, crashOneOracle(4),
		core.WithMaxRounds(4), core.WithObserver(tr))
	if err != nil {
		t.Fatal(err)
	}
	data, err := tr.Perfetto()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// validatePerfetto decodes data as Chrome/Perfetto trace-event JSON and
// checks the structural schema every viewer relies on.
func validatePerfetto(t *testing.T, data []byte) {
	t.Helper()
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("not a trace-event JSON object: %v", err)
	}
	if len(f.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}
	flowStarts := map[float64]bool{}
	for i, ev := range f.TraceEvents {
		name, _ := ev["name"].(string)
		ph, _ := ev["ph"].(string)
		if name == "" {
			t.Fatalf("event %d: empty name: %v", i, ev)
		}
		for _, key := range []string{"pid", "tid"} {
			if _, ok := ev[key].(float64); !ok {
				t.Fatalf("event %d (%s): missing %s: %v", i, name, key, ev)
			}
		}
		if ph != "M" {
			ts, ok := ev["ts"].(float64)
			if !ok || ts < 0 {
				t.Fatalf("event %d (%s): bad ts: %v", i, name, ev)
			}
		}
		switch ph {
		case "X":
			if dur, ok := ev["dur"].(float64); !ok || dur < 1 {
				t.Fatalf("event %d (%s): complete event without positive dur: %v", i, name, ev)
			}
		case "i":
			if s, _ := ev["s"].(string); s != "t" && s != "p" && s != "g" {
				t.Fatalf("event %d (%s): instant without scope: %v", i, name, ev)
			}
		case "s", "f":
			id, ok := ev["id"].(float64)
			if !ok {
				t.Fatalf("event %d (%s): flow event without id: %v", i, name, ev)
			}
			if ph == "s" {
				flowStarts[id] = true
			} else {
				if bp, _ := ev["bp"].(string); bp != "e" {
					t.Fatalf("event %d (%s): flow finish without bp=e: %v", i, name, ev)
				}
				if !flowStarts[id] {
					t.Fatalf("event %d (%s): flow finish %v before any start", i, name, id)
				}
			}
		case "M":
			if name != "process_name" && name != "thread_name" {
				t.Fatalf("event %d: unexpected metadata %q", i, name)
			}
		default:
			t.Fatalf("event %d (%s): unexpected phase %q", i, name, ph)
		}
	}
}

func TestTracerPerfettoSchema(t *testing.T) {
	validatePerfetto(t, traceOneRun(t))
}

func TestTracerDeterministic(t *testing.T) {
	first := traceOneRun(t)
	for i := 0; i < 2; i++ {
		if again := traceOneRun(t); !bytes.Equal(first, again) {
			t.Fatalf("rerun %d produced different trace bytes:\n%s\nvs\n%s", i+1, first, again)
		}
	}
}

// TestTracerFlows checks the Heard-Of reading of a trace: round 1 is
// clean (every deliver terminates a flow from every emitter), and from
// round 2 the crashed process neither emits nor receives while the
// suspicion instants name it.
func TestTracerFlows(t *testing.T) {
	var f struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(traceOneRun(t), &f); err != nil {
		t.Fatal(err)
	}
	type ev struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	counts := map[string]int{}
	suspectInstants := 0
	for _, raw := range f.TraceEvents {
		var e ev
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatal(err)
		}
		counts[e.Name+"/"+e.Ph]++
		if e.Name == "suspect" {
			suspectInstants++
		}
	}
	// 4 emitters in round 1 + 3 in round 2 (p3 crashed; the run ends at
	// round 2 once every live process decided).
	if got := counts["emit/X"]; got != 4+3 {
		t.Fatalf("emit spans = %d, want 7", got)
	}
	if got := counts["msg/s"]; got != 7 {
		t.Fatalf("flow starts = %d, want one per emit (7)", got)
	}
	// Flow finishes: round 1 is all-hear-all (4×4); round 2 has 3 live
	// processes hearing 3 emitters each.
	if got := counts["msg/f"]; got != 16+9 {
		t.Fatalf("flow finishes = %d, want 25", got)
	}
	if got := counts["decide/i"]; got != 3 {
		t.Fatalf("decide instants = %d, want 3", got)
	}
	if got := counts["crash/i"]; got != 1 {
		t.Fatalf("crash instants = %d, want 1", got)
	}
	if suspectInstants == 0 {
		t.Fatal("no suspicion instants recorded")
	}
	if got := counts["round 1/X"]; got != 1 {
		t.Fatalf("round 1 spans = %d, want 1", got)
	}
	for _, phase := range []string{"plan", "emit", "deliver"} {
		if counts["phase:"+phase+"/X"] == 0 {
			t.Fatalf("no phase:%s spans", phase)
		}
	}
}

// TestTracerReset: a reset tracer restarts run numbering and drops state.
func TestTracerReset(t *testing.T) {
	tr := trace.New()
	inputs := []core.Value{3, 1, 2, 0}
	if _, err := core.Run(4, inputs, minFactory, crashOneOracle(4),
		core.WithMaxRounds(4), core.WithObserver(tr)); err != nil {
		t.Fatal(err)
	}
	first, err := tr.Perfetto()
	if err != nil {
		t.Fatal(err)
	}
	tr.Reset()
	if tr.Len() != 0 {
		t.Fatalf("len after reset = %d", tr.Len())
	}
	if _, err := core.Run(4, inputs, minFactory, crashOneOracle(4),
		core.WithMaxRounds(4), core.WithObserver(tr)); err != nil {
		t.Fatal(err)
	}
	again, err := tr.Perfetto()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, again) {
		t.Fatal("trace after Reset differs from a fresh tracer's")
	}
}
