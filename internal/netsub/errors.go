package netsub

import (
	"errors"
	"fmt"

	"repro/internal/core"
)

// ErrClosed is returned from every operation on a closed node.
var ErrClosed = errors.New("netsub: node closed")

// ErrBackpressure is the sentinel matched (via errors.Is) by
// *BackpressureError.
var ErrBackpressure = errors.New("netsub: peer send queue full")

// BackpressureError reports a shed send: the peer's bounded send queue
// was at its in-flight cap, and the substrate sheds rather than buffer
// without bound. On a real network a shed is indistinguishable from a
// lost message, and the round watchdog degrades it into a suspicion the
// same way.
type BackpressureError struct {
	// To is the congested peer.
	To core.PID

	// Cap is the peer's configured in-flight cap, all of it in use.
	Cap int
}

// Error implements error.
func (e *BackpressureError) Error() string {
	return fmt.Sprintf("netsub: send to p%d shed: %d/%d frames in flight", e.To, e.Cap, e.Cap)
}

// Is reports that a BackpressureError is an ErrBackpressure.
func (e *BackpressureError) Is(target error) bool { return target == ErrBackpressure }

// shed reports whether err is a loss the substrate already accounts for
// (backpressure) rather than a failure of the caller's operation: the
// message won't arrive, and suspicion — not an error return — is how the
// round layer learns that.
func shed(err error) bool {
	return errors.Is(err, ErrBackpressure)
}

// TruncatedFrameError reports a frame cut short: fewer bytes were
// available than the header (or the header's length field) requires. On
// a live stream it means the connection died mid-frame.
type TruncatedFrameError struct {
	// Need is the byte count the frame requires; Got what was present.
	Need, Got int
}

// Error implements error.
func (e *TruncatedFrameError) Error() string {
	return fmt.Sprintf("netsub: truncated frame: need %d bytes, have %d", e.Need, e.Got)
}

// OversizeFrameError reports a length field above MaxFramePayload — a
// corrupt or hostile frame rejected before any allocation.
type OversizeFrameError struct {
	// Length is the claimed payload length; Max the permitted bound.
	Length, Max int
}

// Error implements error.
func (e *OversizeFrameError) Error() string {
	return fmt.Sprintf("netsub: oversized frame: payload %d exceeds %d", e.Length, e.Max)
}

// CorruptFrameError reports a frame that failed structural validation:
// bad magic, unknown kind, non-zero flags, checksum mismatch, or an
// undecodable payload body.
type CorruptFrameError struct {
	// Field names what failed ("magic", "kind", "flags", "crc", "value",
	// "hello"); Detail carries the offending bytes or reason.
	Field, Detail string
}

// Error implements error.
func (e *CorruptFrameError) Error() string {
	return fmt.Sprintf("netsub: corrupt frame (%s: %s)", e.Field, e.Detail)
}

// UnsupportedTypeError reports an attempt to send a value outside the
// wire vocabulary — a caller bug, not a network condition.
type UnsupportedTypeError struct {
	Value core.Value
}

// Error implements error.
func (e *UnsupportedTypeError) Error() string {
	return fmt.Sprintf("netsub: unsupported wire type %T", e.Value)
}
