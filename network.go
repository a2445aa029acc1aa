package rrfd

import (
	"repro/internal/netsub"
)

// ---- Real-network substrate (internal/netsub) ----

// TCPConfig shapes one TCP node: peer addresses, queue bounds,
// heartbeat cadence, redial backoff.
type TCPConfig = netsub.Config

// StartTCPNode brings one mesh endpoint up.
var StartTCPNode = netsub.Start
