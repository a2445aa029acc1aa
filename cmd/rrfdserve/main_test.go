package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

func TestStartRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  config
		want string
	}{
		{"no wal", config{mesh: "127.0.0.1:0"}, "-wal"},
		{"no mesh", config{walDir: t.TempDir(), sync: "always"}, "-mesh"},
		{"n mismatch", config{walDir: t.TempDir(), mesh: "a,b", n: 3, sync: "always"}, "does not match"},
		{"me range", config{walDir: t.TempDir(), mesh: "a,b", me: 2, sync: "always"}, "-me"},
		{"f range", config{walDir: t.TempDir(), mesh: "a,b", f: 2, sync: "always"}, "-f"},
		{"bad sync", config{walDir: t.TempDir(), mesh: "127.0.0.1:0", sync: "sometimes"}, "-sync"},
	} {
		var buf bytes.Buffer
		if _, _, err := start(tc.cfg, &buf); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// TestSingleNodeServeAndRecover drives the full CLI surface short of
// main(): start a one-node service, decide, shut down, start the next
// incarnation on the same journal and check it remembers.
func TestSingleNodeServeAndRecover(t *testing.T) {
	cfg := config{
		me: 0, mesh: "127.0.0.1:0", listen: "127.0.0.1:0",
		walDir: t.TempDir(), sync: "always",
		reqTimeout: 2 * time.Second, seed: 1,
	}
	var buf bytes.Buffer
	srv, cleanup, err := start(cfg, &buf)
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer cleanup()
	c := serve.NewClient(serve.ClientConfig{Addr: srv.ClientAddr(), Timeout: 2 * time.Second, Seed: 1})
	resp, err := c.Submit("job", "r1", 7)
	if err != nil || resp.Status != serve.StatusDecided || resp.Val != 7 {
		t.Fatalf("submit: %+v, %v", resp, err)
	}
	c.Close()
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if !strings.Contains(buf.String(), "incarnation 1") {
		t.Fatalf("banner missing incarnation:\n%s", buf.String())
	}

	buf.Reset()
	srv2, cleanup2, err := start(cfg, &buf)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer cleanup2()
	defer srv2.Close()
	if srv2.Incarnation() != 2 {
		t.Fatalf("incarnation %d, want 2", srv2.Incarnation())
	}
	if v, ok := srv2.RecoveredDecisions()["job"]; !ok || v != 7 {
		t.Fatalf("journal did not recover job=7: %v %v", v, ok)
	}
	if !strings.Contains(buf.String(), "recovered 1 durable decisions") {
		t.Fatalf("banner missing recovery line:\n%s", buf.String())
	}
}
