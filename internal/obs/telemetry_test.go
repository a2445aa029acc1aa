package obs_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// feedMetrics drives one tiny observed execution so every exporter has
// something to show.
func feedMetrics(t *testing.T, m *obs.Metrics) {
	t.Helper()
	factory := func(me core.PID, n int, input core.Value) core.Algorithm {
		return decideAt2{input}
	}
	oracle := core.OracleFunc(func(r int, active core.Set) core.RoundPlan {
		plan := core.RoundPlan{Suspects: make([]core.Set, 3)}
		for i := range plan.Suspects {
			if r >= 2 {
				plan.Suspects[i] = core.SetOf(3, 2)
			} else {
				plan.Suspects[i] = core.SetOf(3)
			}
		}
		if r == 2 {
			plan.Crashes = core.SetOf(3, 2)
		}
		return plan
	})
	if _, err := core.Run(3, []core.Value{1, 2, 3}, factory, oracle,
		core.WithMaxRounds(4), core.WithObserver(m)); err != nil {
		t.Fatal(err)
	}
	m.Observe(obs.Event{Kind: "rlink.retransmit", R: -1, P: 0})
}

type decideAt2 struct{ v core.Value }

func (a decideAt2) Emit(r int) core.Message { return a.v }
func (a decideAt2) Deliver(r int, msgs core.Inbox, suspects core.Set) (core.Value, bool) {
	return a.v, r >= 2
}

var (
	promSample  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? -?[0-9.eE+]+$`)
	promHelp    = regexp.MustCompile(`^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .+$`)
	promType    = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|summary|histogram|untyped)$`)
	promStrip   = regexp.MustCompile(`_(sum|count)$`)
	sampleIdent = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*`)
)

// validatePrometheus parses r as the Prometheus text exposition format:
// every line is a HELP/TYPE comment or a sample, and every sample's
// metric (modulo the summary's _sum/_count suffixes) was TYPE-declared
// first. Returns the sample names seen.
func validatePrometheus(t *testing.T, r io.Reader) map[string]bool {
	t.Helper()
	typed := map[string]bool{}
	seen := map[string]bool{}
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		switch {
		case text == "":
		case strings.HasPrefix(text, "# HELP "):
			if !promHelp.MatchString(text) {
				t.Fatalf("line %d: malformed HELP: %q", line, text)
			}
		case strings.HasPrefix(text, "# TYPE "):
			m := promType.FindStringSubmatch(text)
			if m == nil {
				t.Fatalf("line %d: malformed TYPE: %q", line, text)
			}
			typed[m[1]] = true
		case strings.HasPrefix(text, "#"):
			t.Fatalf("line %d: unexpected comment form: %q", line, text)
		default:
			if !promSample.MatchString(text) {
				t.Fatalf("line %d: malformed sample: %q", line, text)
			}
			name := sampleIdent.FindString(text)
			base := promStrip.ReplaceAllString(name, "")
			if !typed[name] && !typed[base] {
				t.Fatalf("line %d: sample %q without preceding TYPE", line, name)
			}
			seen[name] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return seen
}

func TestWritePrometheus(t *testing.T) {
	tel := obs.NewMetrics()
	feedMetrics(t, tel)
	var b strings.Builder
	obs.WritePrometheus(&b, tel.Snapshot())
	seen := validatePrometheus(t, strings.NewReader(b.String()))
	for _, want := range []string{
		"rrfd_runs_total", "rrfd_rounds_total", "rrfd_suspicions_total",
		"rrfd_phase_ns_total", "rrfd_events_total",
		"rrfd_deliver_fanin", "rrfd_deliver_fanin_sum", "rrfd_deliver_fanin_count",
		"rrfd_round_ns",
	} {
		if !seen[want] {
			t.Fatalf("exposition lacks %s:\n%s", want, b.String())
		}
	}
}

func TestServeTelemetry(t *testing.T) {
	tel := obs.NewMetrics()
	feedMetrics(t, tel)
	srv, err := obs.ServeTelemetry("127.0.0.1:0", tel)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := &http.Client{Timeout: 5 * time.Second}
	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := client.Get(fmt.Sprintf("http://%s%s", srv.Addr(), path))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s\n%s", path, resp.Status, body)
		}
		return resp, body
	}

	resp, body := get("/metrics")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	validatePrometheus(t, strings.NewReader(string(body)))

	_, body = get("/snapshot")
	var snap obs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/snapshot not a Snapshot: %v\n%s", err, body)
	}
	if snap.Runs != 1 || snap.Rounds != 2 {
		t.Fatalf("snapshot runs=%d rounds=%d, want 1/2", snap.Runs, snap.Rounds)
	}
	if len(snap.SuspectedCounts) == 0 {
		t.Fatal("snapshot dropped suspected_counts")
	}

	_, body = get("/debug/pprof/cmdline")
	if len(body) == 0 {
		t.Fatal("empty pprof cmdline")
	}

	// A second bind on the same port must fail synchronously — the
	// listen-error contract that replaced the bare goroutine listeners.
	if dup, err := obs.ServeTelemetry(srv.Addr(), tel); err == nil {
		dup.Close()
		t.Fatal("duplicate bind unexpectedly succeeded")
	}
}

// TestSuspectRecorded pins the Suspect fix: member identities land in the
// snapshot (process 2 is the only suspect in feedMetrics' run).
func TestSuspectRecorded(t *testing.T) {
	m := obs.NewMetrics()
	feedMetrics(t, m)
	s := m.Snapshot()
	if len(s.SuspectedCounts) != 1 || s.SuspectedCounts[2] == 0 {
		t.Fatalf("suspected_counts = %v, want only process 2", s.SuspectedCounts)
	}
	if s.SuspectedCounts[2] != s.SuspicionsTotal {
		t.Fatalf("suspected_counts[2] = %d, suspicions_total = %d: identity and cardinality accounting disagree",
			s.SuspectedCounts[2], s.SuspicionsTotal)
	}
	// The round-duration and fan-in histograms must have fired too.
	if s.Hist["round_ns"].Count == 0 || s.Hist["deliver_fanin"].Count == 0 {
		t.Fatalf("hist snapshots missing engine distributions: %v", s.Hist)
	}
}
