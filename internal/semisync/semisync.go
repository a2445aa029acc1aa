// Package semisync implements the semi-synchronous model of §5 — the
// Dolev–Dwork–Stockmeyer (DDS) model variant the paper solves an open
// problem in:
//
//   - processes are asynchronous and fail by crashing;
//   - a step atomically receives every buffered message and then broadcasts
//     one message;
//   - broadcast is reliable, and every message sent is buffered at all
//     processes before any process takes another step.
//
// The kernel here is a deterministic state-machine simulator: an adversary
// Chooser picks which process takes the next atomic step. On top of it,
// twostep.go implements the paper's 2-step-per-round realization of the
// eq. (5) detector (all processes get identical suspect sets) and the
// resulting 2-step consensus (Theorem 5.1 + Theorem 3.1 with k = 1), and
// relay.go implements the 2n-step baseline the model was previously known
// to admit.
package semisync

import (
	"fmt"

	"repro/internal/core"
)

// Msg is a delivered broadcast.
type Msg struct {
	From    core.PID
	Payload core.Value
}

// StepResult is what a process does in one atomic step.
type StepResult struct {
	// Broadcast is the payload to broadcast; honored only when
	// HasBroadcast is true (a process may stay silent — the "omitted to
	// broadcast" behaviour of §5).
	Broadcast    core.Value
	HasBroadcast bool

	// Decide/Decided report the process's decision the first time
	// Decided is true.
	Decide  core.Value
	Decided bool

	// Halt stops the process from taking further steps.
	Halt bool
}

// Stepper is one process of the DDS model, driven by atomic steps.
type Stepper interface {
	// Step performs one atomic receive/broadcast step. received holds
	// every message buffered since the process's previous step, in
	// buffering order.
	Step(received []Msg) StepResult
}

// Factory builds the per-process Stepper.
type Factory func(me core.PID, n int, input core.Value) Stepper

// Chooser picks which ready process takes the next step.
type Chooser func(step int, ready []core.PID) int

// Seeded returns a deterministic pseudo-random chooser.
func Seeded(seed int64) Chooser {
	s := uint64(seed)*0x9E3779B97F4A7C15 + 1
	return func(step int, ready []core.PID) int {
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		return int((s * 2685821657736338717 >> 33) % uint64(len(ready)))
	}
}

// RoundRobin returns the fair cyclic chooser.
func RoundRobin() Chooser {
	next := 0
	return func(step int, ready []core.PID) int {
		next++
		return next % len(ready)
	}
}

// Config tunes an execution.
type Config struct {
	// Chooser plays the asynchrony adversary; nil means Seeded(1).
	Chooser Chooser

	// crash maps a process to the number of steps it takes before
	// crashing (0 = it never takes a step). Crashes are clean: a crashed
	// process broadcasts nothing, consistent with atomic steps.
	crash map[core.PID]int

	// maxSteps bounds the global step count; 0 means 1<<20.
	maxSteps int
}

// Outcome reports a finished execution.
type Outcome struct {
	// Values holds each decided process's decision.
	Values map[core.PID]core.Value

	// DecidedAtStep maps each decided process to its OWN step count at
	// the moment of decision — the §5 complexity measure ("runs in 2
	// steps" vs "runs in 2n steps").
	DecidedAtStep map[core.PID]int

	// StepsByProc counts each process's steps.
	StepsByProc []int

	// StepsTotal is the global number of steps taken.
	StepsTotal int

	// Crashed is the set of crashed processes.
	Crashed core.Set
}

// MaxDecisionSteps returns the largest per-process step count at decision
// (0 if nothing decided).
func (o *Outcome) MaxDecisionSteps() int {
	m := 0
	for _, s := range o.DecidedAtStep {
		if s > m {
			m = s
		}
	}
	return m
}

// Run executes the DDS system until every live process halts (or decides
// and halts), or the step budget runs out.
func Run(n int, cfg Config, factory Factory, inputs []core.Value) (*Outcome, error) {
	if n <= 0 || len(inputs) != n {
		return nil, fmt.Errorf("semisync: %d inputs for %d processes", len(inputs), n)
	}
	chooser := cfg.Chooser
	if chooser == nil {
		chooser = Seeded(1)
	}
	maxSteps := cfg.maxSteps
	if maxSteps == 0 {
		maxSteps = 1 << 20
	}

	steppers := make([]Stepper, n)
	for i := 0; i < n; i++ {
		steppers[i] = factory(core.PID(i), n, inputs[i])
	}
	buffers := make([][]Msg, n)
	out := &Outcome{
		Values:        make(map[core.PID]core.Value),
		DecidedAtStep: make(map[core.PID]int),
		StepsByProc:   make([]int, n),
		Crashed:       core.NewSet(n),
	}
	halted := core.NewSet(n)

	for step := 0; step < maxSteps; step++ {
		ready := make([]core.PID, 0, n)
		for i := 0; i < n; i++ {
			p := core.PID(i)
			if !halted.Has(p) && !out.Crashed.Has(p) {
				ready = append(ready, p)
			}
		}
		if len(ready) == 0 {
			out.StepsTotal = step
			return out, nil
		}
		idx := chooser(step, ready)
		if idx < 0 || idx >= len(ready) {
			return nil, fmt.Errorf("semisync: chooser returned %d for %d ready", idx, len(ready))
		}
		p := ready[idx]

		if limit, ok := cfg.crash[p]; ok && out.StepsByProc[p] >= limit {
			out.Crashed.Add(p)
			buffers[p] = nil
			continue
		}

		received := buffers[p]
		buffers[p] = nil
		res := steppers[p].Step(received)
		out.StepsByProc[p]++

		if res.HasBroadcast {
			// Atomic reliable broadcast: buffered at every other process
			// before anyone's next step.
			m := Msg{From: p, Payload: res.Broadcast}
			for q := 0; q < n; q++ {
				if core.PID(q) != p && !out.Crashed.Has(core.PID(q)) {
					buffers[q] = append(buffers[q], m)
				}
			}
		}
		if res.Decided {
			if _, done := out.DecidedAtStep[p]; !done {
				out.Values[p] = res.Decide
				out.DecidedAtStep[p] = out.StepsByProc[p]
			}
		}
		if res.Halt {
			halted.Add(p)
		}
	}
	out.StepsTotal = maxSteps
	undecided := make([]core.PID, 0, n)
	for i := 0; i < n; i++ {
		p := core.PID(i)
		if _, done := out.DecidedAtStep[p]; !done && !out.Crashed.Has(p) {
			undecided = append(undecided, p)
		}
	}
	return out, &StepBudgetError{Budget: maxSteps, Undecided: undecided}
}

// StepBudgetError reports a Run that exhausted its step budget before every
// live process halted, naming the live processes still undecided — the
// diagnosis an opaque sentinel could not carry.
type StepBudgetError struct {
	// Budget is the exhausted maxSteps value.
	Budget int

	// Undecided lists live processes that had not decided at exhaustion.
	Undecided []core.PID
}

func (e *StepBudgetError) Error() string {
	if len(e.Undecided) == 0 {
		return fmt.Sprintf("semisync: step budget %d exhausted before all live processes halted", e.Budget)
	}
	return fmt.Sprintf("semisync: step budget %d exhausted, processes %v live and undecided", e.Budget, e.Undecided)
}
