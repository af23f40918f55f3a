package origin

import (
	"net"
	"syscall"
)

// peeker peeks at one upstream connection without blocking. Its
// RawConn and the callback that RawConn.Read runs are made once, when
// the connection is dialled, so a probe allocates nothing. Only the
// goroutine that holds the connection probes it.
type peeker struct {
	raw  syscall.RawConn // nil when the connection has no descriptor to peek at
	peek func(fd uintptr) bool
	n    int
	err  error
	b    [1]byte
}

func (p *peeker) init(nc net.Conn) {
	if sc, ok := nc.(syscall.Conn); ok {
		p.raw, _ = sc.SyscallConn()
	}
	p.peek = func(fd uintptr) bool {
		p.n, _, p.err = syscall.Recvfrom(int(fd), p.b[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		return true
	}
}

// probe peeks at the connection: unread means bytes wait that no
// request asked for, closed that the origin closed or reset it. A
// connection in neither state is idle.
func (p *peeker) probe() (unread, closed bool) {
	if p.raw == nil {
		return false, false
	}
	if err := p.raw.Read(p.peek); err != nil {
		return false, true
	}
	switch {
	case p.err == syscall.EAGAIN:
		return false, false
	case p.err == nil && p.n > 0:
		return true, false
	default:
		return false, true
	}
}
