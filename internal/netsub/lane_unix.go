//go:build unix

package netsub

import (
	"net"
	"syscall"
)

// rawConnOf returns conn's RawConn, or nil when conn has none.
func rawConnOf(conn net.Conn) syscall.RawConn {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return nil
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		return nil
	}
	return raw
}

// writeRaw makes the inline path's one write of l.out. Returning true
// every time keeps RawConn.Write from waiting for the socket to drain: a
// full socket is 0 bytes written, and the rest is the writer's.
func (l *Lane) writeRaw(fd uintptr) bool {
	n, err := syscall.Write(int(fd), l.out)
	switch {
	case err == syscall.EAGAIN || err == syscall.EINTR:
	case err != nil:
		l.werr = err
	default:
		l.wn = n
	}
	return true
}
