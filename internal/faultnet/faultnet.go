// Package faultnet turns concrete network-fault models into data: a Plan is
// a seeded, composable list of elementary link-level behaviours — message
// drop, duplication, bounded delay, send-omission by a faulty sender, and
// named partitions that form and heal at configured steps — compiled into a
// msgnet.FaultInjector. Following the Heard-Of programme of deriving round
// predicates from elementary message behaviours, each component corresponds
// to one of the paper's §2 models (see DESIGN.md, "Fault injection &
// recovery"); internal/chaos randomizes Plans and internal/predicate checks
// which model the induced trace still satisfies.
//
// Plans are plain data on purpose: the chaos harness shrinks a failing Plan
// component-by-component to a minimal reproducer, and a (seed, Plan) pair
// replays an execution exactly.
package faultnet

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/msgnet"
)

// Kind names an elementary fault behaviour.
type Kind string

// The elementary behaviours a Component can express.
const (
	// Drop loses each message with probability Rate.
	Drop Kind = "drop"

	// Duplicate delivers Copies extra copies with probability Rate.
	Duplicate Kind = "duplicate"

	// Delay holds each copy back 1..MaxDelay extra steps with probability
	// Rate (delayed copies may overtake later sends: reordering).
	Delay Kind = "delay"

	// SendOmission loses messages from the Senders with probability Rate —
	// the faulty-sender behaviour of the eq. (1) omission model.
	SendOmission Kind = "send-omission"

	// Partition drops every message crossing between Groups while the
	// step clock is in [From, Until); Until 0 means it never heals.
	Partition Kind = "partition"
)

// Component is one elementary fault behaviour. Which fields matter depends
// on Kind; the zero values of the rest are ignored.
type Component struct {
	Kind Kind `json:"kind"`

	// Rate is the per-message firing probability (Drop, Duplicate, Delay,
	// SendOmission).
	Rate float64 `json:"rate,omitempty"`

	// Copies is how many extra copies a firing Duplicate delivers;
	// 0 means 1.
	Copies int `json:"copies,omitempty"`

	// MaxDelay bounds the extra delivery delay, in scheduler steps, of a
	// firing Delay (uniform on 1..MaxDelay; 0 means 1).
	MaxDelay int `json:"max_delay,omitempty"`

	// Senders are the send-omission-faulty processes.
	Senders []core.PID `json:"senders,omitempty"`

	// Groups are the sides of a Partition; messages between processes in
	// different groups are dropped while the partition is active.
	// Processes in no group are unaffected.
	Groups [][]core.PID `json:"groups,omitempty"`

	// From and Until delimit a Partition's active window [From, Until) in
	// scheduler steps; Until 0 means the partition never heals.
	From  int `json:"from,omitempty"`
	Until int `json:"until,omitempty"`

	// Name labels a Partition in reports.
	Name string `json:"name,omitempty"`
}

// String renders the component compactly for reports.
func (c Component) String() string {
	switch c.Kind {
	case Drop:
		return fmt.Sprintf("drop(%.0f%%)", c.Rate*100)
	case Duplicate:
		return fmt.Sprintf("duplicate(%.0f%%×%d)", c.Rate*100, max(1, c.Copies))
	case Delay:
		return fmt.Sprintf("delay(%.0f%%≤%d)", c.Rate*100, max(1, c.MaxDelay))
	case SendOmission:
		return fmt.Sprintf("omission(%v@%.0f%%)", c.Senders, c.Rate*100)
	case Partition:
		sides := make([]string, len(c.Groups))
		for i, g := range c.Groups {
			parts := make([]string, len(g))
			for j, p := range g {
				parts[j] = fmt.Sprint(int(p))
			}
			sides[i] = strings.Join(parts, ",")
		}
		until := "∞"
		if c.Until > 0 {
			until = fmt.Sprint(c.Until)
		}
		name := c.Name
		if name == "" {
			name = "partition"
		}
		return fmt.Sprintf("%s{%s}@[%d,%s)", name, strings.Join(sides, "|"), c.From, until)
	default:
		return fmt.Sprintf("unknown(%s)", c.Kind)
	}
}

// Plan is a seeded fault model: the Components are applied to every
// non-loopback send, in order, with all randomness derived from Seed. A
// Plan value (plus the execution's scheduler seed) replays an execution
// exactly.
type Plan struct {
	Seed       int64       `json:"seed"`
	Components []Component `json:"components"`
}

// String renders the plan for reports: "seed=7 drop(30%) delay(10%≤8)".
func (p Plan) String() string {
	parts := make([]string, 0, len(p.Components)+1)
	parts = append(parts, fmt.Sprintf("seed=%d", p.Seed))
	if len(p.Components) == 0 {
		parts = append(parts, "fault-free")
	}
	for _, c := range p.Components {
		parts = append(parts, c.String())
	}
	return strings.Join(parts, " ")
}

// Partitions returns the plan's partition components.
func (p Plan) Partitions() []Component {
	var out []Component
	for _, c := range p.Components {
		if c.Kind == Partition {
			out = append(out, c)
		}
	}
	return out
}

// WithoutComponent returns a copy of the plan with component i removed —
// the shrinking step of chaos-plan minimization.
func (p Plan) WithoutComponent(i int) Plan {
	out := Plan{Seed: p.Seed, Components: make([]Component, 0, len(p.Components)-1)}
	out.Components = append(out.Components, p.Components[:i]...)
	out.Components = append(out.Components, p.Components[i+1:]...)
	return out
}

// Injector compiles the plan into a msgnet fault injector. Each component
// gets its own deterministic random stream derived from (Seed, index), so
// the injector as a whole is deterministic for a fixed plan.
func (p Plan) Injector() msgnet.FaultInjector {
	inj := &injector{
		comps:   p.Components,
		rngs:    make([]core.Rand, len(p.Components)),
		groupOf: make([][]int, len(p.Components)),
	}
	copies := 1 // the most copies one send can become: sizes the scratch
	for i, c := range p.Components {
		inj.rngs[i] = core.NewRand(p.Seed + int64(i+1)*0x9E3779B9)
		if c.Kind == Duplicate {
			copies += max(1, c.Copies)
		}
		if c.Kind != Partition {
			continue
		}
		for g, side := range c.Groups {
			for _, pid := range side {
				if pid < 0 {
					continue
				}
				for len(inj.groupOf[i]) <= int(pid) {
					inj.groupOf[i] = append(inj.groupOf[i], noGroup)
				}
				inj.groupOf[i][pid] = g
			}
		}
	}
	inj.delays = make([]int, 0, copies)
	return inj
}

// LockStep is the plan's second reading, for rounds in which every process
// waits for all n up to a watchdog of that many steps: the plan as the
// author of D(i,r). A rate-1.0 SendOmission sender is suspected by everyone
// but itself in every round; Duplicate, omission at rate 0 and Delay
// components that together stay under the watchdog leave no mark. Any other
// component — Drop, Partition, omission at a rate in between, a delay that
// can reach the watchdog — suspects whom the scheduler makes it suspect:
// the plan has no reading. The oracle plans, and owns, the same sets every
// round.
func (p Plan) LockStep(n, watchdog int) (core.Oracle, error) {
	omitting, delay := core.NewSet(n), 0
	for _, c := range p.Components {
		switch {
		case c.Kind == Duplicate, c.Kind == SendOmission && c.Rate <= 0:
		case c.Kind == Delay && delay+max(1, c.MaxDelay) < watchdog:
			delay += max(1, c.MaxDelay)
		case c.Kind == SendOmission && c.Rate >= 1:
			for _, s := range c.Senders {
				omitting.Add(s)
			}
		default:
			return nil, fmt.Errorf("faultnet: %s has no lock-step reading", c)
		}
	}
	suspects := make([]core.Set, n)
	for i := range suspects {
		suspects[i] = omitting.Clone()
		suspects[i].Remove(core.PID(i))
	}
	return core.OracleFunc(func(int, core.Set) core.RoundPlan {
		return core.RoundPlan{Suspects: suspects}
	}), nil
}

// noGroup marks a process on no side of a partition.
const noGroup = -1

type injector struct {
	comps   []Component
	rngs    []core.Rand
	groupOf [][]int // per partition component: pid → side, or noGroup
	delays  []int   // the Deliveries scratch, sized for the plan's most copies
}

// side returns the partition side of pid under component i, or noGroup.
func (in *injector) side(i int, pid core.PID) int {
	if pid < 0 || int(pid) >= len(in.groupOf[i]) {
		return noGroup
	}
	return in.groupOf[i][pid]
}

// OnSend implements msgnet.FaultInjector: the components transform the
// fault-free single immediate delivery in order, first drop wins. The
// returned Deliveries is the injector's scratch, valid until the next
// OnSend.
func (in *injector) OnSend(step int, from, to core.PID) msgnet.FaultAction {
	delays := append(in.delays[:0], 0)
	for i := range in.comps {
		c := &in.comps[i]
		switch c.Kind {
		case SendOmission:
			if containsPID(c.Senders, from) && chance(&in.rngs[i], c.Rate) {
				return msgnet.FaultAction{Reason: "omission"}
			}
		case Partition:
			if step >= c.From && (c.Until == 0 || step < c.Until) {
				gf, gt := in.side(i, from), in.side(i, to)
				if gf != noGroup && gt != noGroup && gf != gt {
					return msgnet.FaultAction{Reason: "partition"}
				}
			}
		case Drop:
			if chance(&in.rngs[i], c.Rate) {
				return msgnet.FaultAction{Reason: "drop"}
			}
		case Duplicate:
			if chance(&in.rngs[i], c.Rate) {
				for extra := max(1, c.Copies); extra > 0; extra-- {
					delays = append(delays, 0)
				}
			}
		case Delay:
			for j := range delays {
				if chance(&in.rngs[i], c.Rate) {
					delays[j] += 1 + in.rngs[i].Intn(max(1, c.MaxDelay))
				}
			}
		}
	}
	return msgnet.FaultAction{Deliveries: delays}
}

func containsPID(s []core.PID, p core.PID) bool {
	for _, q := range s {
		if q == p {
			return true
		}
	}
	return false
}

// chance draws a trial of probability rate from r; a zero rate draws nothing.
func chance(r *core.Rand, rate float64) bool { return rate > 0 && r.Float() < rate }
