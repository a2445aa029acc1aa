// Offline journal inspection: what a server's WAL durably records,
// without starting a server. The chaos campaign reads a killed victim's
// journal through this to audit that every acknowledged decision is on
// disk and no instance was ever decided twice.
package serve

import (
	"fmt"

	"repro/internal/wal"
)

// JournalState is the durable content of one server's WAL.
type JournalState struct {
	// Decisions maps instance → decided value; Proposals maps instance →
	// this node's first-wins proposal.
	Decisions map[string]int
	Proposals map[string]int

	// Boots counts recBoot records: the next incarnation is Boots+1.
	Boots int

	// DuplicateDecisions lists instances with more than one decision
	// record — always a bug: the decision table makes a second decision
	// for an instance impossible.
	DuplicateDecisions []string

	// TruncatedBytes is the torn tail the replay dropped.
	TruncatedBytes int
}

// ReadJournal replays the WAL in dir without opening it for appending.
func ReadJournal(dir string) (*JournalState, error) {
	recs, rep, err := wal.Replay(dir)
	if err != nil {
		return nil, err
	}
	js, err := fold(recs)
	if err != nil {
		return nil, err
	}
	js.TruncatedBytes = rep.TruncatedBytes
	return js, nil
}

// fold is the one reading of a server's journal records: ReadJournal
// folds what wal.Replay returns and Start what wal.Open returns, so a
// record the audit refuses (undecodable, or of a kind no server writes)
// refuses the restart too.
func fold(recs []wal.Record) (*JournalState, error) {
	js := &JournalState{Decisions: make(map[string]int), Proposals: make(map[string]int)}
	for _, r := range recs {
		switch r.Kind {
		case recBoot:
			js.Boots++
		case recProposal:
			inst, val, err := decodeInstValRecord(r.Payload)
			if err != nil {
				return nil, fmt.Errorf("serve: journal seq %d: %w", r.Seq, err)
			}
			js.Proposals[inst] = val
		case recDecision:
			inst, val, err := decodeInstValRecord(r.Payload)
			if err != nil {
				return nil, fmt.Errorf("serve: journal seq %d: %w", r.Seq, err)
			}
			if _, dup := js.Decisions[inst]; dup {
				js.DuplicateDecisions = append(js.DuplicateDecisions, inst)
			}
			js.Decisions[inst] = val
		default:
			return nil, fmt.Errorf("serve: journal seq %d: unknown record kind %d", r.Seq, r.Kind)
		}
	}
	return js, nil
}
