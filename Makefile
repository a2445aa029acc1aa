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

.PHONY: build test race vet ci bench bench-build bench-check baton-race readers-race net-short fuzz-short cover unlinked chaos

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Every package and every cmd/ test under the race detector. The cmd/ tests
# drive each CLI mode through run() with fixed seeds — clean and planted-bug
# campaigns (chaos, chaos-recover, chaos-serve), mc exhaustive, bounded
# and replayed, -model, -perfetto, kill-and-resume, the rrfdload local and
# pooled modes — so no target below repeats one as a `go run` smoke: a
# target stays only for what this one cannot assert.
race:
	$(GO) test -race ./...

# gofmt -l prints the files it would rewrite (bench/ included, which
# ./... never reaches): any name fails the target.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .) && test -z "$$out" || { echo "gofmt -l . lists:"; echo "$$out"; exit 1; }

ci: vet build bench-build race baton-race readers-race net-short cover unlinked

# bench/ is a nested module (repro/bench) that `go build ./...` and
# `go vet ./...` never reach: vet and compile it here, so an API move
# that breaks the end-to-end benchmark is caught without running it.
bench-build:
	$(GO) vet -C bench . && $(GO) build -C bench -o /dev/null .

# The substrates' scheduler runs on the driver or on whichever body's
# coroutine posted last, and a finished body's coroutine is pooled for the
# next execution (internal/baton), so the packages built on it are raced at
# one and at four processors whatever the runner has; so are the campaigns
# whose par.Map workers share msgnet's and reliablelink's pooled state, and
# the experiment sweeps, where a worker resumes coroutines another created
# and E07's trials borrow pooled engine Runners. A collect's buffer is its
# caller's (a snapshot handle's scan buffers, an adopt-commit's, a
# simulation's board) and the step that applies each read writes it while
# the caller is parked, from whichever goroutine holds the baton: every
# package that collects is raced too. An exploration task's engine Runner
# carries its storage from one schedule to the next, on whichever worker
# runs the task: the shared-enumerator explorations at 1, 4 and 8 workers.
baton-race:
	$(GO) test -race -count=1 -cpu 1,4 ./internal/baton/ ./internal/msgnet/ ./internal/swmr/ ./internal/reliablelink/ ./internal/snapshot/ \
		./internal/adoptcommit/ ./internal/immediate/ ./internal/simulate/
	$(GO) test -race -count=1 -cpu 1,4 -run 'Parallel|Golden|Hygiene' ./internal/chaos/
	$(GO) test -race -count=1 -cpu 1,4 -run TestSweepWorkersByteIdentical ./internal/exp/
	$(GO) test -race -count=1 -cpu 1,4 -run TestSharedEnumExploresTheSameTree ./internal/adversary/

# Connection readers answer reads from the decided table while the loop
# publishes into it: the concurrent-reader tests ten times over. Readers
# of many connections post fresh submits at once into the one loop, which
# admits them under the in-flight bound: the admission test as often, at
# one P and at four. The loop writes the journal itself, through a group
# whose mutex serializes any other caller: eight goroutines appending to
# one group as often, at one P and at four. And every sender writes to a
# connection itself while its lane is idle, the lane's writer only what a
# sender could not finish: the lane tests and the shedding test as often,
# at one P and at four. The loop asks the peers its mesh hears, reading the
# inbound table while mesh readers register and drop connections and post
# answers: the liveness and hedge tests, and the table's own, as often, at
# one P and at four. A mesh reader pushes heartbeat acks onto its node's
# lanes beside the loop: the heartbeat tests as often, at one P and at
# four.
readers-race:
	$(GO) test -race -count 10 -run 'TestConcurrentReaders|TestReadYourWrites' ./internal/serve/
	$(GO) test -race -count 10 -cpu 1,4 -run TestAdmissionNeverOvershoots ./internal/serve/
	$(GO) test -race -count 10 -cpu 1,4 -run 'TestDeadPeerIsNotAsked|TestHedge' ./internal/serve/
	$(GO) test -race -count 10 -cpu 1,4 -run TestGroupSerializesCallers ./internal/wal/
	$(GO) test -race -count 10 -cpu 1,4 -run 'TestLane|TestBackpressureSheds|TestHears|TestHeartbeat|TestAcceptedConnectionIsOnlyRead' ./internal/netsub/

# The multi-process run, which no test spawns: one OS process per pid over
# inherited loopback listeners, the highest pid killed and restarted
# mid-run, decisions audited for validity and k-agreement.
net-short:
	$(GO) run -race ./cmd/rrfdsim tcp -n 4 -f 1 -k 2 -rounds 3 -watchdog 600

# Every other target replays the wire decoders' checked-in seeds only:
# these fuzz each for 10 s past them — a mesh frame and the round message
# it carries, a peer message, a client line, a journal. Not in `make ci`,
# whose targets assert fixed outcomes; CI runs it as a job of its own.
fuzz-short:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime 10s -parallel 2 ./internal/netsub/
	$(GO) test -run '^$$' -fuzz '^FuzzPeerMsg$$' -fuzztime 10s -parallel 2 ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzRequestLine$$' -fuzztime 10s -parallel 2 ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzReplay$$' -fuzztime 10s -parallel 2 ./internal/wal/

# Coverage floors for the packages that judge every other package's safety:
# the model-checking engine and the model-algebra compiler stay >= 85%
# covered, the task relation every audit evaluates (task.KSet) and the atom
# table every model is judged by (internal/predicate) >= 90%. Two audits
# built on task.KSet are floored with them: agreement.Validate, which judges
# every engine result (internal/agreement >= 90%), and recovery.Audit
# (internal/recovery >= 85%).
# The observer sinks are one switch over every event kind each, so a kind
# no test renders shows here: internal/obs stays >= 90%, its Tracer >= 85%.
# The engine's plan validation judges every experiment: internal/core >= 85%.
# Every sampled table rests on the seeded adversaries and their generator:
# internal/adversary >= 90%. Every fault campaign rests on the packages whose
# fixed-seed goldens pin it: the virtual scheduler (internal/msgnet) and the
# reliable links (internal/reliablelink) >= 90%, the fault injector
# (internal/faultnet) >= 85%. The real-network substrate, whose lanes
# carry every mesh frame and client response (internal/netsub), stays
# >= 85%, and the service built on it (internal/serve) >= 80%. The
# journal every acknowledgement waits for (internal/wal) stays >= 80%:
# journal-before-ack rests on it.
cover:
	$(GO) test -cover ./internal/mc/ ./internal/task/ ./internal/hoalg/ ./internal/predicate/ ./internal/obs/ ./internal/obs/trace/ ./internal/agreement/ ./internal/recovery/ ./internal/core/ ./internal/adversary/ ./internal/msgnet/ ./internal/reliablelink/ ./internal/faultnet/ ./internal/netsub/ ./internal/serve/ ./internal/wal/ | awk '{ \
		for (i = 1; i <= NF; i++) if ($$i == "coverage:") c[$$2] = substr($$(i+1), 1, length($$(i+1))-1); \
		print } END { \
		floor["mc"] = 85; floor["task"] = 90; floor["hoalg"] = 85; floor["predicate"] = 90; floor["obs"] = 90; floor["obs/trace"] = 85; \
		floor["agreement"] = 90; floor["recovery"] = 85; floor["core"] = 85; floor["adversary"] = 90; \
		floor["msgnet"] = 90; floor["reliablelink"] = 90; floor["faultnet"] = 85; \
		floor["netsub"] = 85; floor["serve"] = 80; floor["wal"] = 80; \
		for (p in floor) if (c["repro/internal/" p] + 0 < floor[p]) { \
			print "internal/" p " coverage " c["repro/internal/" p] "% below " floor[p] "% floor"; bad = 1 } \
		exit bad }'

# A function in a non-test file of internal/ stays only if something that
# ships links it (DESIGN §4 "What stays"). No tier-1 test can assert that:
# it needs every main linked — the 6 cmd/ mains, the 5 examples, bench/ and
# the root test binary (the cross-package integration tests) — which is what this target
# does, without inlining so a call is a symbol. Declared = `go tool nm` over
# the `go list -export` archives, restricted to names the source declares
# (nm also lists pointer-receiver twins, interface thunks and init); linked
# = `go tool nm` over the binaries; closures and generic instantiations fold
# into their function. The difference must equal UNLINKED_KEPT exactly: the
# first column of the failure output is a function nothing links, the second
# an entry below that something now links (or that is gone).
#
# One line per kept function, then who uses it to judge what ships.
define UNLINKED_KEPT
repro/internal/netsub.WrapListener                    harness: the chaos proxy; TestProxyPartitionCrossValidatesFaultnet
repro/internal/netsub.WrapAll                         chaos proxy
repro/internal/netsub.(*ChaosListener).Accept         chaos proxy
repro/internal/netsub.(*pump).backward                chaos proxy
repro/internal/netsub.(*pump).forward                 chaos proxy
repro/internal/netsub.(*pump).write                   chaos proxy
repro/internal/fleet.Audit                            oracle: TestFleetDeterministicAcrossShardsAndWorkers
repro/internal/detector.(*History).CheckStrongCompleteness  oracle: TestStrongCompleteness
repro/internal/core.(*Trace).ValidateFailStop         oracle: TestTraceValidate, TestCrashRecoverRejoin
repro/internal/hoalg.(*Expr).Equal                    oracle: TestStringParseRoundTrip, FuzzParseExpr
repro/internal/simulate.RunTwoForOne                  oracle: TestRunTwoForOneMatchesTraceDerivation (the §2 items 3-4 construction)
repro/internal/simulate.(*twoForOne).Deliver          under RunTwoForOne: TestRunTwoForOneMatchesTraceDerivation
repro/internal/simulate.(*twoForOne).Emit             under RunTwoForOne: TestRunTwoForOneMatchesTraceDerivation
repro/internal/simulate.(*twoForOne).assemble         under RunTwoForOne: TestRunTwoForOneMatchesTraceDerivation
repro/internal/wal.(*Log).SyncedSeq                   oracle: TestSyncAlwaysCannotLoseAnAppend, TestAppendBatchSyncAlwaysHorizon
repro/internal/core.Inbox.From                        contract: TestInboxIsTheDeliverOverride (S(i,r) for an algorithm that keeps it)
endef
export UNLINKED_KEPT

unlinked:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; mkdir "$$tmp/bin"; \
	syms() { awk '$$2 ~ /^[Tt]$$/ && $$3 ~ /^repro\/internal\// { print $$3 }' \
		| sed -e 's/\[.*//' -e 's/\.func[0-9].*$$//' -e 's/\.gowrap[0-9]*$$//' -e 's/\.deferwrap[0-9]*$$//' -e 's/-fm$$//' | sort -u; }; \
	flags='-gcflags=repro/...=-l'; \
	for m in ./cmd/* ./examples/*; do $(GO) build $$flags -o "$$tmp/bin/$$(basename $$m)" $$m; done; \
	$(GO) build -C bench $$flags -o "$$tmp/bin/bench" .; \
	$(GO) test -c $$flags -o "$$tmp/bin/root.test" .; \
	for b in "$$tmp"/bin/*; do $(GO) tool nm "$$b"; done | syms > "$$tmp/linked"; \
	$(GO) list -export $$flags -f '{{.Export}}' ./internal/... | while read a; do $(GO) tool nm "$$a"; done | syms > "$$tmp/compiled"; \
	find internal -name '*.go' ! -name '*_test.go' | xargs grep -HE '^func ' | sed -E \
		-e 's|^(internal/.*)/[^/]*\.go:func \(([A-Za-z_0-9]+ )?\*([A-Za-z_0-9]+)(\[[^]]*\])?\) ([A-Za-z_0-9]+).*|repro/\1.(*\3).\5|' \
		-e 's|^(internal/.*)/[^/]*\.go:func \(([A-Za-z_0-9]+ )?([A-Za-z_0-9]+)(\[[^]]*\])?\) ([A-Za-z_0-9]+).*|repro/\1.\3.\5|' \
		-e 's|^(internal/.*)/[^/]*\.go:func ([A-Za-z_0-9]+).*|repro/\1.\2|' | sort -u > "$$tmp/source"; \
	comm -12 "$$tmp/compiled" "$$tmp/source" | comm -23 - "$$tmp/linked" > "$$tmp/unlinked"; \
	printf '%s\n' "$$UNLINKED_KEPT" | awk 'NF { print $$1 }' | sort -u > "$$tmp/kept"; \
	out=$$(comm -3 "$$tmp/unlinked" "$$tmp/kept"); test -z "$$out" || { echo "$$out"; exit 1; }

# The larger sweep: every fault class, more seeds, more runs.
chaos:
	$(GO) run ./cmd/rrfdsim chaos -n 6 -f 2 -k 3 -runs 500 -drop 0.3 -seed 7
	$(GO) run ./cmd/rrfdsim chaos -n 6 -f 2 -k 3 -runs 300 -seed 21 \
		-drop 0.3 -dup 0.3 -delay 0.4 -omit 0.4 -partition 0.5 -crashes 2
	$(GO) run ./cmd/rrfdsim chaos -n 8 -f 3 -k 4 -runs 200 -seed 5 \
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
