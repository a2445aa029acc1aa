// Package rrfd is a library of round-by-round fault detectors (RRFDs),
// reproducing Eli Gafni's "Round-by-Round Fault Detectors: Unifying
// Synchrony and Asynchrony" (PODC 1998).
//
// # The model
//
// Computation evolves in communication-closed rounds. In round r every
// process emits a message and then, for every other process p_j, either
// receives p_j's round-r message or is told by the fault detector that p_j
// is suspected for this round (p_j ∈ D(i,r)); communication missed at a
// round is lost. The detector is unreliable — a suspicion does not imply a
// real failure and may be contradicted a round later. A concrete model of
// distributed computation (synchronous or asynchronous, message passing or
// shared memory, failure-detector-augmented or not) is captured entirely by
// a predicate over the suspect sets D(i,r); the detector is an adversary
// choosing the worst suspect sets the predicate allows.
//
// # What the library provides
//
//   - the RRFD engine: deterministic, adversary-driven round execution
//     (Run, CollectTrace) with recorded traces;
//   - the paper's model predicates as first-class checkable objects
//     (SendOmission, SyncCrash, PerRoundBudget, SharedMemory,
//     AtomicSnapshot, NeverSuspectedExists, KSetDetector,
//     IdenticalSuspects, ...) plus empirical implication testing;
//   - hostile adversaries realizing each predicate (Omission, Crash,
//     ChainCrash, AsyncBudget, SnapshotChain, KSetUncertainty, ...);
//   - agreement algorithms: the one-round k-set agreement of Theorem 3.1,
//     FloodMin / FloodSet synchronous baselines, rotating-coordinator
//     consensus for the detector-S model;
//   - operational substrates, each validated against the predicate the
//     paper assigns it: an asynchronous message-passing network
//     (RunNetworkRounds), SWMR shared memory under a pluggable
//     scheduler (RunShared, explored by MCExplore), wait-free atomic
//     snapshots (NewSnapshot, RunSnapshotRounds), the adopt-commit protocol
//     of §4.2 (AdoptCommit), and the semi-synchronous DDS model of §5
//     (RunTwoStep, RelayFactory);
//   - the paper's simulations: two message-passing rounds to one
//     shared-memory round, the B-system reduction, Theorem 4.1's
//     synchronous-omission prefix, and Theorem 4.3's crash-fault
//     simulation via adopt-commit (CrashSync) — including the lower-bound
//     witness of Corollary 4.4;
//   - the experiment harness (Experiments) regenerating every table in
//     EXPERIMENTS.md.
//
// See README.md for a tour and examples/ for runnable programs.
package rrfd
