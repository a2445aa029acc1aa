// Wire formats of the agreement service: the compact peer-to-peer
// message encoding carried as []byte payloads over the netsub mesh, the
// WAL record encodings that make instance state durable, and the types of
// the newline-delimited JSON protocol clients speak (codec.go codes them).
//
// Peer messages ride the existing netsub frame codec as opaque byte
// slices, so the mesh transport needs no knowledge of the service layer:
//
//	kind     uint8          // pmPropose or pmDecide
//	instance uvarint-len + bytes
//	value    zigzag varint
//
// Journal records use the same instance/value encoding under three WAL
// record kinds; recBoot carries only the incarnation number.
package serve

import (
	"encoding/binary"
	"fmt"
)

// Peer message kinds.
const (
	pmPropose byte = 1 // "my proposal for instance X is v"
	pmDecide  byte = 2 // "I decided v for instance X", in reply to a proposal for X
	pmBatch   byte = 3 // coalesced frame: uvarint count, then length-prefixed messages
)

// maxBatchMsgs bounds one pmBatch frame on the decode side; a frame
// claiming more is a protocol error rather than an allocation.
const maxBatchMsgs = 4096

// encodePeerBatch packs several peer messages into one pmBatch frame:
// one mesh send carries everything a turn has for one peer.
func encodePeerBatch(msgs [][]byte) []byte {
	sz := 1 + binary.MaxVarintLen64
	for _, m := range msgs {
		sz += binary.MaxVarintLen64 + len(m)
	}
	b := make([]byte, 0, sz)
	b = append(b, pmBatch)
	b = binary.AppendUvarint(b, uint64(len(msgs)))
	for _, m := range msgs {
		b = binary.AppendUvarint(b, uint64(len(m)))
		b = append(b, m...)
	}
	return b
}

// decodePeerBatch unpacks a pmBatch frame, calling fn once per inner
// message (aliasing into b — fn must not retain past the call).
func decodePeerBatch(b []byte, fn func(msg []byte)) error {
	if len(b) < 1 || b[0] != pmBatch {
		return fmt.Errorf("serve: not a batch frame")
	}
	b = b[1:]
	cnt, n := binary.Uvarint(b)
	if n <= 0 || cnt > maxBatchMsgs {
		return fmt.Errorf("serve: bad batch count")
	}
	b = b[n:]
	for i := uint64(0); i < cnt; i++ {
		ln, n := binary.Uvarint(b)
		if n <= 0 || uint64(len(b)-n) < ln {
			return fmt.Errorf("serve: truncated batch message %d", i)
		}
		fn(b[n : n+int(ln)])
		b = b[n+int(ln):]
	}
	if len(b) != 0 {
		return fmt.Errorf("serve: %d trailing bytes in batch frame", len(b))
	}
	return nil
}

// WAL record kinds. A server's journal is a sequence of these; replaying
// them rebuilds the proposal and decision maps and counts incarnations.
const (
	recBoot     uint8 = 1 // payload: uvarint incarnation
	recProposal uint8 = 2 // payload: instance + value
	recDecision uint8 = 3 // payload: instance + value
)

// maxInstanceID bounds one instance identifier; anything larger is a
// protocol error rather than an allocation.
const maxInstanceID = 4096

// appendInstVal appends the shared instance+value encoding.
func appendInstVal(b []byte, inst string, val int) []byte {
	b = binary.AppendUvarint(b, uint64(len(inst)))
	b = append(b, inst...)
	return binary.AppendVarint(b, int64(val))
}

// decodeInstVal reads the shared instance+value encoding from b.
func decodeInstVal(b []byte) (inst string, val int, rest []byte, err error) {
	ln, n := binary.Uvarint(b)
	if n <= 0 || ln > maxInstanceID || uint64(len(b)-n) < ln {
		return "", 0, nil, fmt.Errorf("serve: bad instance id length")
	}
	inst = string(b[n : n+int(ln)])
	b = b[n+int(ln):]
	v, n := binary.Varint(b)
	if n <= 0 {
		return "", 0, nil, fmt.Errorf("serve: bad value varint")
	}
	return inst, int(v), b[n:], nil
}

// encodePeerMsg builds one peer message payload.
func encodePeerMsg(kind byte, inst string, val int) []byte {
	b := make([]byte, 0, 2+len(inst)+binary.MaxVarintLen64)
	b = append(b, kind)
	return appendInstVal(b, inst, val)
}

// decodePeerMsg parses one peer message payload.
func decodePeerMsg(b []byte) (kind byte, inst string, val int, err error) {
	if len(b) < 1 {
		return 0, "", 0, fmt.Errorf("serve: empty peer message")
	}
	kind = b[0]
	if kind != pmPropose && kind != pmDecide {
		return 0, "", 0, fmt.Errorf("serve: unknown peer message kind %d", kind)
	}
	inst, val, rest, err := decodeInstVal(b[1:])
	if err != nil {
		return 0, "", 0, err
	}
	if len(rest) != 0 {
		return 0, "", 0, fmt.Errorf("serve: %d trailing bytes in peer message", len(rest))
	}
	return kind, inst, val, nil
}

// encodeBoot builds a recBoot payload.
func encodeBoot(incarnation int) []byte {
	return binary.AppendUvarint(nil, uint64(incarnation))
}

// encodeInstVal builds a recProposal/recDecision payload.
func encodeInstVal(inst string, val int) []byte {
	return appendInstVal(make([]byte, 0, 1+len(inst)+binary.MaxVarintLen64), inst, val)
}

// decodeInstValRecord parses a recProposal/recDecision payload.
func decodeInstValRecord(b []byte) (inst string, val int, err error) {
	inst, val, rest, err := decodeInstVal(b)
	if err != nil {
		return "", 0, err
	}
	if len(rest) != 0 {
		return "", 0, fmt.Errorf("serve: %d trailing bytes in journal record", len(rest))
	}
	return inst, val, nil
}

// Status is the outcome class of one client request.
type Status string

const (
	// StatusDecided carries the decided value: the durable, final answer
	// for the instance (journaled before the response is sent).
	StatusDecided Status = "decided"

	// StatusAbstain reports that the request's deadline expired before a
	// quorum view formed: the server degrades into abstain-and-report
	// (Gathered/Need say how far the view got) instead of hanging. The
	// instance stays open until its TTL; a retry may find it decided.
	StatusAbstain Status = "abstain"

	// StatusOverload reports admission control shedding the request: the
	// bounded in-flight instance table is full (Inflight/Max). Retry
	// after backoff.
	StatusOverload Status = "overload"

	// StatusUnknown answers a query for an instance with no recorded
	// decision.
	StatusUnknown Status = "unknown"

	// StatusError reports a malformed or unsupported request.
	StatusError Status = "error"
)

// Request is one client→server line of the JSON protocol.
type Request struct {
	// Op is "submit" (propose Val for Inst under request ID Req) or
	// "query" (read Inst's decision, if any).
	Op   string `json:"op"`
	Inst string `json:"inst"`

	// Req identifies a submit idempotently: retries reuse the same ID
	// and can never decide a second time — the server answers every
	// duplicate from its decision table.
	Req string `json:"req,omitempty"`
	Val int    `json:"val,omitempty"`

	// TimeoutMS overrides the server's default per-request deadline.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// Response is one server→client line of the JSON protocol.
type Response struct {
	Req    string `json:"req,omitempty"`
	Inst   string `json:"inst,omitempty"`
	Status Status `json:"status"`
	Val    int    `json:"val,omitempty"`

	// Gathered and Need report abstain progress: proposals heard versus
	// the n−f quorum the decision rule requires.
	Gathered int `json:"gathered,omitempty"`
	Need     int `json:"need,omitempty"`

	// Inflight and Max report admission-control state on overload.
	Inflight int `json:"inflight,omitempty"`
	Max      int `json:"max,omitempty"`

	// Incarnation is the serving process's WAL-derived incarnation.
	Incarnation int    `json:"incarnation,omitempty"`
	Err         string `json:"err,omitempty"`
}

// UnreachableError reports that every attempt at a server failed at the
// transport layer (dial, write, or read) — no structured response was
// ever received.
type UnreachableError struct {
	Addr     string
	Attempts int
	Last     error
}

// Error implements error.
func (e *UnreachableError) Error() string {
	return fmt.Sprintf("serve: %s unreachable after %d attempts: %v", e.Addr, e.Attempts, e.Last)
}

// Unwrap exposes the final transport error.
func (e *UnreachableError) Unwrap() error { return e.Last }
