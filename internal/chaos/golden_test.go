package chaos

import "testing"

// The goldens below were recorded before the four round runners and the
// five decision folds collapsed onto msgnet.RunSubstrateRounds and
// agreement.QuorumMin. A summary is a pure function of the seed, so any
// other string means the round loop, the links, the journal or the
// decision rule changed behaviour.

// TestGoldenCampaign pins chunk 0 of the bench/sim.go fault campaign
// (its chaosGolden), which tier-1 would otherwise never run.
func TestGoldenCampaign(t *testing.T) {
	const want = "chaos: 250 runs, 0 violations, 1277 decided, 223 undecided, 47 stalls, 91723 retransmissions, 0 give-ups, 343652 steps"
	got := Run(Config{
		N: 6, F: 2, K: 3,
		Runs:      250,
		Seed:      1000004,
		DropRate:  0.3,
		DupRate:   0.3,
		DelayRate: 0.4, OmitRate: 0.4, PartitionRate: 0.5,
		MaxCrashes: 2,
		Workers:    1,
	}).String()
	if got != want {
		t.Fatalf("campaign summary\n got %q\nwant %q", got, want)
	}
}

// TestGoldenRecoverCampaign pins a crash-and-recover campaign with link
// faults, so catch-up skips and amnesia windows both occur.
func TestGoldenRecoverCampaign(t *testing.T) {
	const want = "chaos-recover: 120 runs, 0 violations, 482 decided, 118 undecided, 120 crashes, 97 restarts, 43 rejoins, 272 replayed rounds, 77 lost records, 115657 steps"
	got := RunRecover(RecoverConfig{
		N: 5, F: 1,
		Runs:     120,
		Seed:     42,
		DropRate: 0.15, DelayRate: 0.2,
		Workers: 1,
	}).String()
	if got != want {
		t.Fatalf("recover summary\n got %q\nwant %q", got, want)
	}
}

// TestGoldenAmnesiaCampaign pins the violating recover campaign of
// TestRunRecoverViolationsByteIdentical: with the audit in PID order the
// string is a function of the seed, so it can be a golden at all.
func TestGoldenAmnesiaCampaign(t *testing.T) {
	const want = `chaos-recover: 19 runs, 10 violations, 131 decided, 2 undecided, 35 crashes, 35 restarts, 28 rejoins, 74 replayed rounds, 27 lost records, 19008 steps
run 0: durability violation: recovery audit: durability violation at p1: decided 26 but the durable view is for round 3, not the final round 6
  replay: sched-seed=615894545 crashes=p1@38,p2@7,p3@4 restarts=p1@276,p2@153,p3@15 proposals=[26 29 84 86 70 54 93] plan: seed=785219755 fault-free
run 1: durability violation: recovery audit: durability violation at p3: decided 41 but the durable final view justifies 7
  replay: sched-seed=426672192 crashes=p3@17,p4@36 restarts=p3@3,p4@110 proposals=[76 7 41 69 33 60 88] plan: seed=610908737 fault-free
run 5: durability violation: recovery audit: durability violation at p6: decided 28 but the durable final view justifies 26
  replay: sched-seed=206252001 crashes=p0@2,p2@6,p6@31 restarts=p0@169,p2@282,p6@156 proposals=[80 78 26 28 74 61 58] plan: seed=185002244 fault-free
run 8: durability violation: recovery audit: durability violation at p6: decided 59 but the durable final view justifies 2
  replay: sched-seed=635043870 crashes=p6@17 restarts=p6@94 proposals=[59 71 2 75 72 95 30] plan: seed=27458429 fault-free
run 9: durability violation: recovery audit: durability violation at p4: decided 10 but the durable final view justifies 8
  replay: sched-seed=622254353 crashes=p4@25 restarts=p4@61 proposals=[91 38 10 61 22 8 81] plan: seed=228898282 fault-free
run 11: durability violation: recovery audit: durability violation at p2: decided 33 but the durable final view justifies 3
  replay: sched-seed=210383493 crashes=p2@13 restarts=p2@106 proposals=[40 33 81 8 49 64 3] plan: seed=230896896 fault-free
run 12: durability violation: recovery audit: durability violation at p3: decided 17 but the durable view is for round 0, not the final round 6
  replay: sched-seed=81958229 crashes=p0@11,p3@26,p6@1 restarts=p0@249,p3@268,p6@197 proposals=[21 17 93 20 76 77 78] plan: seed=856559526 fault-free
run 15: durability violation: recovery audit: durability violation at p0: decided 54 but the durable final view justifies 9
  replay: sched-seed=256922099 crashes=p0@16,p1@33,p2@39 restarts=p0@66,p1@233,p2@3 proposals=[73 54 78 94 38 68 9] plan: seed=264289851 fault-free
run 17: durability violation: recovery audit: durability violation at p0: decided 39 but the durable view is for round 0, not the final round 6
  replay: sched-seed=712780937 crashes=p0@32 restarts=p0@247 proposals=[71 88 59 39 96 79 62] plan: seed=647415396 fault-free
run 18: durability violation: recovery audit: durability violation at p0: decided 22 but the durable view is for round 0, not the final round 6
  replay: sched-seed=358166113 crashes=p0@26,p3@2,p6@11 restarts=p0@206,p3@165,p6@101 proposals=[22 81 71 68 58 74 72] plan: seed=770364758 fault-free`
	if got, _ := amnesiaCampaign(1); got != want {
		t.Fatalf("recover summary\n got %q\nwant %q", got, want)
	}
}

// TestGoldenQuorumBugCampaign pins the full violating text of the
// planted-bug campaign cmd/rrfdsim's TestRunChaosPerfetto runs, recorded
// before check moved onto internal/task: the clean goldens above say nothing
// about wording.
func TestGoldenQuorumBugCampaign(t *testing.T) {
	const want = `chaos: 60 runs, 8 violations, 360 decided, 0 undecided, 167 stalls, 23908 retransmissions, 0 give-ups, 66708 steps
run 3: k-agreement violation: 4 distinct decisions [0 1 2 5] exceed k=3
  replay: sched-seed=134255304 crashes=none plan: seed=659333243 drop(95%) omission([0]@59%)
  minimized: seed=659333243 drop(95%)
run 6: k-agreement violation: 6 distinct decisions [0 1 2 3 4 5] exceed k=3
  replay: sched-seed=810076657 crashes=none plan: seed=1026808096 drop(100%) omission([0]@69%) split{0,1,4,5|2,3}@[211,540)
  minimized: seed=1026808096 drop(100%)
run 9: k-agreement violation: 4 distinct decisions [0 1 2 3] exceed k=3
  replay: sched-seed=518135301 crashes=none plan: seed=532644429 drop(90%) omission([0 1]@65%) split{1,2,3,4|0,5}@[388,2445)
  minimized: seed=532644429 drop(90%) omission([0 1]@65%)
run 11: k-agreement violation: 4 distinct decisions [0 1 2 4] exceed k=3
  replay: sched-seed=144207371 crashes=none plan: seed=774260802 drop(86%) omission([2 4]@31%) split{0,2,3,5|1,4}@[77,773)
  minimized: seed=774260802 drop(86%) split{0,2,3,5|1,4}@[77,773)
run 12: k-agreement violation: 6 distinct decisions [0 1 2 3 4 5] exceed k=3
  replay: sched-seed=313449949 crashes=none plan: seed=759079615 drop(99%) omission([0 3]@26%) split{0,3,4,5|1,2}@[243,1755)
  minimized: seed=759079615 drop(99%)
run 26: k-agreement violation: 4 distinct decisions [0 1 2 3] exceed k=3
  replay: sched-seed=16070665 crashes=none plan: seed=1065356850 drop(95%) omission([4]@68%) split{0,1,3,4,5|2}@[294,2319)
  minimized: seed=1065356850 drop(95%)
run 42: k-agreement violation: 5 distinct decisions [0 2 3 4 5] exceed k=3
  replay: sched-seed=735321249 crashes=none plan: seed=526185410 drop(92%) omission([2]@65%)
  minimized: seed=526185410 drop(92%) omission([2]@65%)
run 47: k-agreement violation: 4 distinct decisions [0 1 2 4] exceed k=3
  replay: sched-seed=1000174041 crashes=none plan: seed=908425837 drop(90%) omission([5]@62%)
  minimized: seed=908425837 drop(90%)`
	got := Run(Config{
		N: 6, F: 2, K: 3,
		Runs:     60,
		Seed:     13,
		DropRate: 1.0, OmitRate: 0.8, PartitionRate: 0.6,
		WatchdogSteps: 300,
		QuorumBug:     true,
		Workers:       1,
	}).String()
	if got != want {
		t.Fatalf("campaign summary\n got %q\nwant %q", got, want)
	}
}
