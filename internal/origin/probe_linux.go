package origin

import (
	"net"
	"syscall"
)

// probe peeks at an upstream connection without blocking: unread means
// bytes wait that no request asked for, closed that the origin closed
// or reset it. A connection in neither state is idle.
func probe(nc net.Conn) (unread, closed bool) {
	sc, ok := nc.(syscall.Conn)
	if !ok {
		return false, false
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		return false, true
	}
	var n int
	var perr error
	var b [1]byte
	if err := raw.Read(func(fd uintptr) bool {
		n, _, perr = syscall.Recvfrom(int(fd), b[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		return true
	}); err != nil {
		return false, true
	}
	switch {
	case perr == syscall.EAGAIN:
		return false, false
	case perr == nil && n > 0:
		return true, false
	default:
		return false, true
	}
}
