//go:build !linux

package origin

import "net"

// probe reports every connection idle where no non-blocking peek is
// wired up: a stale pooled connection then costs the retry RoundTrip
// allows, and WriteTo counts any relay failure as the destination's.
func probe(net.Conn) (unread, closed bool) { return false, false }
