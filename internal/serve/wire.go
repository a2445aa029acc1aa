// Wire formats of the agreement service: the compact peer-to-peer
// message encoding carried over the netsub mesh, the WAL record encodings
// that make instance state durable, and the types of the
// newline-delimited JSON protocol clients speak (codec.go codes them).
//
// A mesh data frame's payload is the messages one turn sends one peer,
// back to back, in no particular order: the frame delimits the run and
// each message delimits itself, so the mesh transport needs no knowledge
// of the service layer and the run needs no envelope. One message is
//
//	kind     uint8          // pmPropose, pmProposeQuiet or pmDecide
//	instance uvarint-len + bytes
//	value    zigzag varint
//
// The two proposal kinds differ only in whether the sender wants an
// answer: a node that has decided, and an origin writing to the f peers
// it does not ask, send pmProposeQuiet, which nobody answers. Peer frames
// are never persisted and carry no version: every node of a cluster runs
// the same build.
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
	pmPropose      byte = 1 // "my proposal for instance X is v; answer me"
	pmDecide       byte = 2 // "I decided v for instance X", in reply to a pmPropose for X
	pmProposeQuiet byte = 4 // "my proposal for X is v; no answer wanted"
)

// overlong reports whether the n-byte varint at the head of b is longer
// than the binary.Append(U)varint spelling of its value (a zero final
// byte): refused, so a message or record has one encoding.
func overlong(b []byte, n int) bool { return n > 1 && b[n-1] == 0 }

// WAL record kinds. A server's journal is a sequence of these; replaying
// them rebuilds the proposal and decision maps and counts incarnations.
const (
	recBoot     uint8 = 1 // payload: uvarint incarnation
	recProposal uint8 = 2 // payload: instance + value
	recDecision uint8 = 3 // payload: instance + value
)

// maxInstanceID bounds one instance identifier; anything larger is a
// protocol error rather than an allocation. A connection's reader refuses
// a submit naming a longer one before the loop could journal it: a
// journal holding one would never replay.
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
	if n <= 0 || overlong(b, n) || ln > maxInstanceID || uint64(len(b)-n) < ln {
		return "", 0, nil, fmt.Errorf("serve: bad instance id length")
	}
	inst = string(b[n : n+int(ln)])
	b = b[n+int(ln):]
	v, n := binary.Varint(b)
	if n <= 0 || overlong(b, n) {
		return "", 0, nil, fmt.Errorf("serve: bad value varint")
	}
	return inst, int(v), b[n:], nil
}

// appendPeerMsg appends one peer message.
func appendPeerMsg(b []byte, kind byte, inst string, val int) []byte {
	return appendInstVal(append(b, kind), inst, val)
}

// decodePeerMsg parses the peer message at the head of b and returns the
// bytes after it: the rest of the frame.
func decodePeerMsg(b []byte) (kind byte, inst string, val int, rest []byte, err error) {
	if len(b) < 1 {
		return 0, "", 0, nil, fmt.Errorf("serve: empty peer message")
	}
	kind = b[0]
	if kind != pmPropose && kind != pmDecide && kind != pmProposeQuiet {
		return 0, "", 0, nil, fmt.Errorf("serve: unknown peer message kind %d", kind)
	}
	inst, val, rest, err = decodeInstVal(b[1:])
	return kind, inst, val, rest, err
}

// encodeBoot builds a recBoot payload.
func encodeBoot(incarnation int) []byte {
	return binary.AppendUvarint(nil, uint64(incarnation))
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
