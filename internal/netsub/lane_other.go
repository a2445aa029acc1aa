//go:build !unix

package netsub

import (
	"net"
	"syscall"
)

// rawConnOf gives no connection an inline path here: every frame goes
// through the lane's writer.
func rawConnOf(net.Conn) syscall.RawConn { return nil }

func (l *Lane) writeRaw(uintptr) bool { return true }
