//go:build !linux

package origin

import "net"

// peeker reports every connection idle where no non-blocking peek is
// wired up: a stale pooled connection then costs the retry RoundTrip
// allows, and WriteTo counts any relay failure as the destination's.
type peeker struct{}

func (*peeker) init(net.Conn) {}

func (*peeker) probe() (unread, closed bool) { return false, false }
