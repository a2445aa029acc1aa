# Build, test and benchmark entry points. `make ci` is what the CI
# workflow runs; `make bench` regenerates BENCH_core.json, the committed
# performance baseline every perf PR diffs against.

GO ?= go

# Engine + agreement + virtual-substrate (msgnet, swmr) + reliable-link +
# chaos-campaign + TCP-substrate + service + trace-checker/plan-enumerator +
# exhaustive-sweep
# (trace space, enumerated exploration) + shared-memory (snapshot,
# semi-synchronous) round-runner benchmarks tracked in
# BENCH_core.json. benchstatjson keys rows by bare benchmark name, so names
# must be unique across these packages.
BENCH_PKGS := ./internal/core ./internal/agreement ./internal/msgnet ./internal/swmr ./internal/reliablelink ./internal/chaos ./internal/netsub ./internal/serve ./internal/fleet ./internal/wal ./internal/hoalg ./internal/predicate ./internal/adversary ./internal/snapshot ./internal/semisync
BENCH_PAT  ?= .

.PHONY: build test race vet ci bench bench-build bench-check chaos-short chaos recovery-short mc-short mc-cover hoalg-short telemetry-short net-short serve-short fleet-short

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# gofmt -l prints the files it would rewrite (bench/ included, which
# ./... never reaches): any name fails the target.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .) && test -z "$$out" || { echo "gofmt -l . lists:"; echo "$$out"; exit 1; }

ci: vet build bench-build race chaos-short recovery-short mc-short mc-cover hoalg-short telemetry-short net-short serve-short fleet-short

# bench/ is a nested module (repro/bench) that `go build ./...` and
# `go vet ./...` never reach: vet and compile it here, so an API move
# that breaks the end-to-end benchmark is caught without running it.
bench-build:
	$(GO) vet -C bench . && $(GO) build -C bench -o /dev/null .

# Fixed-seed, small-N fault-injection campaigns under the race detector:
# quick enough for every CI run, loud on any safety violation (the chaos
# binary exits non-zero and prints seed + minimized fault plan). The
# substrates' scheduler runs on whichever process goroutine stopped
# computing last (internal/baton), so the packages built on it are raced at
# one and at four processors whatever the runner has.
chaos-short:
	$(GO) test -race -count=1 -cpu 1,4 ./internal/baton/ ./internal/msgnet/ ./internal/swmr/ ./internal/reliablelink/
	$(GO) run -race ./cmd/rrfdsim -chaos -n 6 -f 2 -k 3 -runs 25 -drop 0.3 -seed 7
	$(GO) run -race ./cmd/rrfdsim -chaos -n 5 -f 1 -k 2 -runs 15 -seed 21 \
		-drop 0.3 -dup 0.3 -delay 0.4 -omit 0.4 -partition 0.5 -crashes 1

# Fixed-seed crash-recovery campaigns plus a kill-and-resume round trip,
# all under the race detector: every run crashes at least one process and
# is audited by recovery.Audit (task.KSet plus durability); the resumed
# execution must match the journal or rrfdsim exits non-zero with a
# divergence error.
recovery-short:
	$(GO) run -race ./cmd/rrfdsim -chaos-recover -n 5 -f 1 -runs 25 -seed 42
	$(GO) run -race ./cmd/rrfdsim -chaos-recover -n 5 -f 1 -runs 15 -seed 7 \
		-drop 0.15 -delay 0.2
	dir=$$(mktemp -d)/ck && \
	$(GO) run -race ./cmd/rrfdsim -system crash -alg floodmin -n 8 -f 3 -seed 5 \
		-checkpoint $$dir -kill-after 1 && \
	$(GO) run -race ./cmd/rrfdsim -system crash -alg floodmin -n 8 -f 3 -seed 5 \
		-resume $$dir && rm -rf $${dir%/ck}

# Fixed-seed model-checking runs under the race detector: exhaustive
# exploration of small instances for three model families, a bounded
# sampled run, and the planted wrong-quorum bug — which MUST fail with its
# known one-choice counterexample (the ! inverts the expected exit 1).
mc-short:
	$(GO) run -race ./cmd/rrfdsim -mc -system async -n 3 -f 1 -alg qkset -workers 4
	$(GO) run -race ./cmd/rrfdsim -mc -system omission -n 3 -f 1 -alg floodmin -rounds 3
	$(GO) run -race ./cmd/rrfdsim -mc -system crash -n 3 -f 1 -alg floodmin -rounds 2 -mc-depth 1
	! $(GO) run -race ./cmd/rrfdsim -mc -system async -n 3 -f 1 -alg qkset -bug
	$(GO) run -race ./cmd/rrfdsim -mc -system async -n 3 -f 1 -alg qkset -bug -mc-replay c1:4; \
		test $$? -eq 1

# Coverage floors for the two packages that judge every other package's
# safety: the model-checking engine stays >= 85% covered, and the task
# relation every audit evaluates (task.KSet) >= 90%.
mc-cover:
	$(GO) test -cover ./internal/mc/ ./internal/task/ | awk '{ \
		for (i = 1; i <= NF; i++) if ($$i == "coverage:") c[$$2] = substr($$(i+1), 1, length($$(i+1))-1); \
		print } END { \
		if (c["repro/internal/mc"] + 0 < 85) { print "internal/mc coverage " c["repro/internal/mc"] "% below 85% floor"; bad = 1 } \
		if (c["repro/internal/task"] + 0 < 90) { print "internal/task coverage " c["repro/internal/task"] "% below 90% floor"; bad = 1 } \
		exit bad }'

# Model-algebra gate, under the race detector: the atom table's own tests
# (internal/predicate), the legacy-name <-> expression binding and golden
# verdict suites, every enumerator path against its checker, compiled vs
# reference enumerators, the fuzz seed corpus and chaos closure; then one
# -model smoke for the plain and the -mc run mode (-chaos -model is pinned
# in tier-1 by cmd/rrfdsim's TestChaosModelGolden) and a coverage floor on
# the compiler package itself.
hoalg-short:
	$(GO) test -race -count=1 ./internal/predicate/ ./internal/hoalg/ ./internal/adversary/
	$(GO) run -race ./cmd/rrfdsim -model sync-crash -n 3 -f 1 -alg none -rounds 3
	$(GO) run -race ./cmd/rrfdsim -mc -model 'kset(2) | perround(1)' -n 3 -f 1 -k 2 -alg qkset
	$(GO) test -cover ./internal/hoalg/ | awk '{ \
		for (i = 1; i <= NF; i++) if ($$i == "coverage:") c = substr($$(i+1), 1, length($$(i+1))-1); \
		print } END { \
		if (c + 0 < 85) { print "internal/hoalg coverage " c "% below 85% floor"; exit 1 } }'

# Telemetry smoke under the race detector: a single run writes a Perfetto
# trace and a metrics snapshot; the planted-bug chaos campaign must fail
# (the leading ! inverts the expected exit 1) AND replay its first
# violation into a trace; both files must be non-empty.
telemetry-short:
	dir=$$(mktemp -d) && \
	$(GO) run -race ./cmd/rrfdsim -system kset -k 2 -n 6 -alg kset -seed 3 \
		-metrics -perfetto $$dir/run.json && \
	test -s $$dir/run.json && \
	! $(GO) run -race ./cmd/rrfdsim -chaos -n 6 -f 2 -k 3 -runs 60 -seed 13 \
		-drop 1.0 -omit 0.8 -partition 0.6 -watchdog 300 -bug \
		-perfetto $$dir/chaos.json && \
	test -s $$dir/chaos.json && rm -rf $$dir

# Real-network smoke under the race detector: the loopback TCP substrate
# tests (peer pool, backpressure, eviction, the coalescing writer, the
# first send after a peer's restart — TestFirstSendAfterPeerRestartArrives —
# chaos proxy, cross-validation against the virtual injector) plus the
# multi-process run — one OS
# process per pid over inherited listeners, the highest pid killed and
# restarted mid-run, decisions audited for validity and k-agreement.
net-short:
	$(GO) test -race -count 1 ./internal/netsub/
	$(GO) run -race ./cmd/rrfdsim -substrate tcp -n 4 -f 1 -k 2 -rounds 3 -watchdog 600

# Agreement-service smoke under the race detector: the service package
# tests (durable instances, admission control, retry discipline, and the
# turn's pins: TestFramesAndCommitsPerDecide holds a fault-free decide to
# <= 9.5 mesh frames and <= 4.5 journal commits,
# TestFirstSubmitAfterRestartDecidesPromptly the first decide at a
# restarted node to a quarter of RequestTimeout), the concurrent-reader
# test ten times over (connection readers answer reads from the decided
# table while the shard loops publish into it), an
# in-process load-generator run with its idempotency/validity/k-agreement
# audit, the fixed-seed kill-and-recover campaign, and the same campaign
# with the planted ack-before-journal bug — which MUST fail on the lost
# acked decision (the leading ! inverts the expected exit 1).
serve-short:
	$(GO) test -race -count 1 ./internal/serve/
	$(GO) test -race -count 10 -run 'TestConcurrentReaders|TestReadYourWrites' ./internal/serve/
	$(GO) run -race ./cmd/rrfdload -local 3 -f 1 -clients 6 -requests 10 -seed 7
	$(GO) run -race ./cmd/rrfdsim -chaos-serve -n 3 -f 1 -k 2 -seed 7
	! $(GO) run -race ./cmd/rrfdsim -chaos-serve -n 3 -f 1 -k 2 -seed 7 -bug

# Engine-fleet smoke under the race detector: the fleet package tests
# (shard × worker determinism grid, repartitioned crash/resume, protocol
# audit) plus a pooled-connection scale run of the load generator — many
# virtual clients multiplexed over a bounded connection pool against a
# sharded local cluster, audits clean.
fleet-short:
	$(GO) test -race -count 1 ./internal/fleet/
	$(GO) run -race ./cmd/rrfdload -local 3 -f 1 -clients 2000 -conns 8 \
		-requests 1 -instances 256 -seed 7

# The larger sweep: every fault class, more seeds, more runs.
chaos:
	$(GO) run ./cmd/rrfdsim -chaos -n 6 -f 2 -k 3 -runs 500 -drop 0.3 -seed 7
	$(GO) run ./cmd/rrfdsim -chaos -n 6 -f 2 -k 3 -runs 300 -seed 21 \
		-drop 0.3 -dup 0.3 -delay 0.4 -omit 0.4 -partition 0.5 -crashes 2
	$(GO) run ./cmd/rrfdsim -chaos -n 8 -f 3 -k 4 -runs 200 -seed 5 \
		-drop 0.4 -delay 0.4 -partition 0.4 -crashes 3

# -count 3: the gate compares per-name ns/op minima, and min-of-3 irons
# out scheduler and fsync noise that a single run leaves in. -cpu 1: the
# committed rows are recorded at one processor (before Go 1.25 GOMAXPROCS
# ignores a container's CPU quota, so the default differs from host to
# host), and the gate compares like with like.
BENCH_COUNT ?= 3

bench:
	$(GO) test -run '^$$' -bench '$(BENCH_PAT)' -benchmem -cpu 1 -count $(BENCH_COUNT) $(BENCH_PKGS) \
		| $(GO) run ./cmd/benchstatjson -o BENCH_core.json

# The regression gate: rerun the tracked benchmarks and diff against the
# committed baseline; fails on >20% ns/op or allocs/op regressions. Refresh
# the baseline with `make bench` when a perf change is intentional.
# ServeDecide/throughput carries no allocs_per_op in the baseline (alloc
# gating skips entries missing it on either side): client retries under
# CPU contention make its alloc count noisy while ns/op stays stable, so
# re-drop that field after regenerating the baseline.
bench-check:
	$(GO) test -run '^$$' -bench '$(BENCH_PAT)' -benchmem -cpu 1 -count $(BENCH_COUNT) $(BENCH_PKGS) \
		| $(GO) run ./cmd/benchstatjson -compare BENCH_core.json
