package main

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestRunRejectsBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run(config{}, &buf); err == nil || !strings.Contains(err.Error(), "-local") {
		t.Fatalf("want local/addrs error, got %v", err)
	}
	if err := run(config{local: 2, addrs: "x"}, &buf); err == nil {
		t.Fatalf("accepted both -local and -addrs")
	}
	if err := run(config{local: 2, clients: 0}, &buf); err == nil {
		t.Fatalf("accepted zero clients")
	}
	if err := run(config{local: 3, clients: 2, requests: 3, instances: 1, k: -1}, &buf); err == nil || !strings.Contains(err.Error(), "-k") {
		t.Fatalf("-k -1: got %v", err)
	}
	// A running mesh of n cannot have f >= n: nothing may be dialed.
	err := run(config{addrs: "127.0.0.1:1,127.0.0.1:2,127.0.0.1:3", f: 3, clients: 1, requests: 1, instances: 1}, &buf)
	if err == nil || !strings.Contains(err.Error(), "-f 3 with 3 addresses") {
		t.Fatalf("-addrs with f >= n: got %v", err)
	}
}

// TestLocalLoadSmoke is the one-command smoke test the CI target runs: a
// local 3-node cluster under concurrent load, all audits clean.
func TestLocalLoadSmoke(t *testing.T) {
	cfg := config{
		local: 3, f: 1,
		clients: 4, requests: 8, instances: 6,
		seed: 7, timeout: 2 * time.Second, attempts: 8,
	}
	var buf bytes.Buffer
	if err := run(cfg, &buf); err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"local cluster: 3 nodes", "outcomes:", "latency:", "ok: idempotency"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "32 requests by 4 clients") {
		t.Fatalf("request accounting off:\n%s", out)
	}

	// An -f the cluster cannot tolerate is clamped before k is derived from
	// it: -local 3 -f 5 runs and audits f=1, k=2 — not a vacuous k=6.
	cfg.f = 5
	buf.Reset()
	if err := run(cfg, &buf); err != nil {
		t.Fatalf("run -f 5: %v\n%s", err, buf.String())
	}
	for _, want := range []string{"(f=1)", "(k=2)", "2-agreement hold"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("-local 3 -f 5: output missing %q:\n%s", want, buf.String())
		}
	}
}

// TestScaleModeSmoke is the pooled-carrier shape: many simulated clients
// multiplexed over a small connection pool against a local cluster, with
// the audits and the histogram-backed decide-latency quantiles intact.
// The same shape scales to -clients 100000 -requests 1 from the CLI.
func TestScaleModeSmoke(t *testing.T) {
	cfg := config{
		local: 3, f: 1,
		clients: 500, conns: 8, requests: 1, instances: 64,
		seed: 11, timeout: 5 * time.Second, attempts: 8,
	}
	var buf bytes.Buffer
	if err := run(cfg, &buf); err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"500 requests by 500 clients",
		"scale: 500 virtual clients multiplexed over 8 connections",
		"decide latency: p50",
		"ok: idempotency",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "outcomes: 0 decided") {
		t.Fatalf("nothing decided under scale load:\n%s", out)
	}
}

func TestScaleModeRejectsNegativeConns(t *testing.T) {
	var buf bytes.Buffer
	if err := run(config{local: 2, clients: 4, requests: 1, instances: 4, conns: -1}, &buf); err == nil {
		t.Fatal("accepted negative -conns")
	}
}
