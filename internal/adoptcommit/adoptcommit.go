// Package adoptcommit implements the wait-free adopt-commit protocol given
// in §4.2 of the paper (simplified from Yang, Neiger and Gafni, reference
// [16]). Process p_i proposes a value; its output is either (commit, v) or
// (adopt, v) subject to:
//
//  1. If all processes propose the same v, every process commits v.
//  2. If any process commits v, every process commits or adopts v.
//
// The protocol uses two arrays of SWMR registers, C[·,1] and C[·,2], and
// exactly 2n+2 register operations per process, so it is wait-free
// (n−1-resilient). It is the machinery Theorem 4.3 adds to convert the
// send-omission simulation of Theorem 4.1 into a crash-fault simulation, and
// the phase building block of the coordinator-based consensus algorithm used
// for §2 item 6.
package adoptcommit

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/swmr"
)

// Grade is the output grade of the protocol.
type Grade int

const (
	// Adopt means the value is carried forward but not decided.
	Adopt Grade = iota + 1

	// Commit means the value may be decided: by property 2, every other
	// process holds the same value (committed or adopted).
	Commit
)

// String implements fmt.Stringer.
func (g Grade) String() string {
	switch g {
	case Adopt:
		return "adopt"
	case Commit:
		return "commit"
	default:
		return fmt.Sprintf("Grade(%d)", int(g))
	}
}

// Outcome is a process's output from one protocol instance.
type Outcome struct {
	Grade Grade
	Value core.Value
}

// phase2Cell is what a process writes to C[i,2]: a graded proposal.
type phase2Cell struct {
	commit bool
	value  core.Value
}

func c1(name string) string { return "ac1:" + name }
func c2(name string) string { return "ac2:" + name }

// Run executes the adopt-commit instance called name for process p with
// proposal v. Proposal values must be comparable with ==. Distinct instances
// (distinct names) are independent.
//
// The protocol, verbatim from the paper:
//
//	write v_i to C[i,1]
//	S := ⋃_j read C[j,1]
//	if S \ {⊥} = {v} then C[i,2] := "commit v" else C[i,2] := "adopt v_i"
//	S := ⋃_j read C[j,2]
//	if S \ {⊥} = {commit v} then return commit v
//	else if "commit v" ∈ S then return adopt v
//	else return adopt v_i
func Run(p *swmr.Proc, name string, v core.Value) (Outcome, error) {
	if err := p.Write(c1(name), v); err != nil {
		return Outcome{}, err
	}
	seen, err := p.Collect(c1(name))
	if err != nil {
		return Outcome{}, err
	}
	singleton := true
	for _, s := range seen {
		if s != swmr.Bottom && s != v {
			singleton = false
			break
		}
	}
	if err := p.Write(c2(name), phase2Cell{commit: singleton, value: v}); err != nil {
		return Outcome{}, err
	}
	seen2, err := p.Collect(c2(name))
	if err != nil {
		return Outcome{}, err
	}
	allCommitSame := true
	var commitVal core.Value
	sawCommit := false
	for _, s := range seen2 {
		if s == swmr.Bottom {
			continue
		}
		cell, ok := s.(phase2Cell)
		if !ok {
			return Outcome{}, fmt.Errorf("adoptcommit: foreign value in %s: %T", c2(name), s)
		}
		if cell.commit {
			if sawCommit && commitVal != cell.value {
				// Impossible by the phase-1 argument; a hit here in
				// model checking would disprove the protocol.
				return Outcome{}, fmt.Errorf("adoptcommit: two distinct committed values %v and %v",
					commitVal, cell.value)
			}
			sawCommit = true
			commitVal = cell.value
		} else {
			allCommitSame = false
		}
	}
	switch {
	case sawCommit && allCommitSame:
		return Outcome{Grade: Commit, Value: commitVal}, nil
	case sawCommit:
		return Outcome{Grade: Adopt, Value: commitVal}, nil
	default:
		return Outcome{Grade: Adopt, Value: v}, nil
	}
}

// CollectProposals returns the phase-1 proposals of instance name currently
// visible to p (swmr.Bottom entries for processes that have not proposed).
// Theorem 4.3's simulation uses it to recover an alive proposal after an
// adopt of a "faulty" verdict.
func CollectProposals(p *swmr.Proc, name string) ([]core.Value, error) {
	return p.Collect(c1(name))
}
