package proxy

// The paper's reference [8] is the Harvest hierarchical object cache,
// whose caches cooperate with the Internet Cache Protocol (ICP, later
// RFC 2186): before fetching from the origin, a proxy sends a tiny UDP
// ICP_QUERY to its sibling caches and fetches from any sibling that
// answers ICP_HIT. This file implements the ICPv2 wire format and the
// query/responder machinery so the live proxy can form the cooperative
// arrangements the paper's Experiment 3 simulates.

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ICP opcodes (RFC 2186 §3).
const (
	ICPOpInvalid     = 0
	ICPOpQuery       = 1
	ICPOpHit         = 2
	ICPOpMiss        = 3
	ICPOpErr         = 4
	ICPOpMissNoFetch = 21
	ICPOpDenied      = 22
)

// ICPVersion is the protocol version this package speaks.
const ICPVersion = 2

// icpHeaderLen is the fixed header size in bytes.
const icpHeaderLen = 20

// maxICPPacket bounds datagram size (RFC 2186 recommends small URLs).
const maxICPPacket = 2048

// ICPMessage is one ICP datagram.
type ICPMessage struct {
	Opcode    uint8
	Version   uint8
	ReqNum    uint32
	Options   uint32
	OptData   uint32
	SenderIP  [4]byte
	RequestIP [4]byte // present only in queries
	URL       string
}

// MarshalICP encodes m. Queries carry the 4-byte requester address
// before the URL; all messages end the URL with a NUL.
func MarshalICP(m *ICPMessage) ([]byte, error) {
	urlLen := len(m.URL) + 1 // trailing NUL
	length := icpHeaderLen + urlLen
	if m.Opcode == ICPOpQuery {
		length += 4
	}
	if length > maxICPPacket {
		return nil, fmt.Errorf("proxy: ICP message too large (%d bytes)", length)
	}
	buf := make([]byte, length)
	buf[0] = m.Opcode
	buf[1] = m.Version
	binary.BigEndian.PutUint16(buf[2:], uint16(length))
	binary.BigEndian.PutUint32(buf[4:], m.ReqNum)
	binary.BigEndian.PutUint32(buf[8:], m.Options)
	binary.BigEndian.PutUint32(buf[12:], m.OptData)
	copy(buf[16:20], m.SenderIP[:])
	off := icpHeaderLen
	if m.Opcode == ICPOpQuery {
		copy(buf[off:off+4], m.RequestIP[:])
		off += 4
	}
	copy(buf[off:], m.URL)
	// buf[length-1] is already 0 (the NUL terminator).
	return buf, nil
}

// UnmarshalICP decodes a datagram.
func UnmarshalICP(data []byte) (*ICPMessage, error) {
	if len(data) < icpHeaderLen {
		return nil, fmt.Errorf("proxy: ICP datagram too short (%d bytes)", len(data))
	}
	m := &ICPMessage{
		Opcode:  data[0],
		Version: data[1],
		ReqNum:  binary.BigEndian.Uint32(data[4:]),
		Options: binary.BigEndian.Uint32(data[8:]),
		OptData: binary.BigEndian.Uint32(data[12:]),
	}
	copy(m.SenderIP[:], data[16:20])
	length := int(binary.BigEndian.Uint16(data[2:]))
	if length > len(data) {
		return nil, fmt.Errorf("proxy: ICP length field %d exceeds datagram size %d", length, len(data))
	}
	if length < icpHeaderLen {
		return nil, fmt.Errorf("proxy: ICP length field %d shorter than the header", length)
	}
	payload := data[icpHeaderLen:length]
	if m.Opcode == ICPOpQuery {
		if len(payload) < 4 {
			return nil, fmt.Errorf("proxy: ICP query lacks requester address")
		}
		copy(m.RequestIP[:], payload[:4])
		payload = payload[4:]
	}
	// Strip the trailing NUL.
	if n := len(payload); n > 0 && payload[n-1] == 0 {
		payload = payload[:n-1]
	}
	m.URL = string(payload)
	return m, nil
}

// ICPResponder answers ICP queries against a store over UDP.
type ICPResponder struct {
	store ObjectStore
	conn  *net.UDPConn

	mu      sync.Mutex
	closed  bool
	Queries int64
	Hits    int64
}

// NewICPResponder starts a responder listening on addr (e.g.
// "127.0.0.1:0"). Close it to release the socket.
func NewICPResponder(store ObjectStore, addr string) (*ICPResponder, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("proxy: resolving ICP address %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, fmt.Errorf("proxy: listening for ICP on %q: %w", addr, err)
	}
	r := &ICPResponder{store: store, conn: conn}
	go r.serve()
	return r, nil
}

// Addr returns the bound UDP address.
func (r *ICPResponder) Addr() string { return r.conn.LocalAddr().String() }

// Close stops the responder.
func (r *ICPResponder) Close() error {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	return r.conn.Close()
}

func (r *ICPResponder) serve() {
	buf := make([]byte, maxICPPacket)
	for {
		n, peer, err := r.conn.ReadFromUDP(buf)
		if err != nil {
			r.mu.Lock()
			closed := r.closed
			r.mu.Unlock()
			if closed {
				return
			}
			continue
		}
		msg, err := UnmarshalICP(buf[:n])
		if err != nil || msg.Opcode != ICPOpQuery {
			continue
		}
		r.mu.Lock()
		r.Queries++
		r.mu.Unlock()

		op := uint8(ICPOpMiss)
		if _, ok := r.store.Peek(msg.URL); ok {
			op = ICPOpHit
			r.mu.Lock()
			r.Hits++
			r.mu.Unlock()
		}
		reply := &ICPMessage{
			Opcode:  op,
			Version: ICPVersion,
			ReqNum:  msg.ReqNum,
			URL:     msg.URL,
		}
		out, err := MarshalICP(reply)
		if err != nil {
			continue
		}
		r.conn.WriteToUDP(out, peer)
	}
}

// Stats returns (queries answered, hits reported).
func (r *ICPResponder) Stats() (queries, hits int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.Queries, r.Hits
}

// Sibling describes one cooperating cache: where to send ICP queries and
// which HTTP proxy to fetch through on a hit.
type Sibling struct {
	ICPAddr string // UDP host:port of the sibling's ICP responder
	Proxy   string // HTTP URL of the sibling's proxy listener
}

// ICPClient queries siblings.
type ICPClient struct {
	Timeout time.Duration

	// queries / replies count the datagrams sent and the replies
	// received in time — the admin endpoint's view of sibling protocol
	// health (Server.RegisterMetrics).
	queries, replies atomic.Int64

	mu     sync.Mutex
	reqNum uint32
}

// QuerySiblings asks every sibling whether it caches url and returns the
// first sibling that answers ICP_HIT within the timeout, or nil.
func (c *ICPClient) QuerySiblings(siblings []Sibling, url string) *Sibling {
	if len(siblings) == 0 {
		return nil
	}
	timeout := c.Timeout
	if timeout <= 0 {
		timeout = 50 * time.Millisecond
	}
	c.mu.Lock()
	c.reqNum++
	reqNum := c.reqNum
	c.mu.Unlock()

	type answer struct {
		idx int
		hit bool
	}
	ch := make(chan answer, len(siblings))
	for i := range siblings {
		go func(i int) {
			hit, err := c.queryOne(siblings[i].ICPAddr, url, reqNum, timeout)
			ch <- answer{idx: i, hit: err == nil && hit}
		}(i)
	}
	for range siblings {
		if a := <-ch; a.hit {
			return &siblings[a.idx]
		}
	}
	return nil
}

// queryOne sends a single ICP_QUERY and waits for the reply.
func (c *ICPClient) queryOne(addr, url string, reqNum uint32, timeout time.Duration) (bool, error) {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return false, fmt.Errorf("proxy: dialing ICP sibling %q: %w", addr, err)
	}
	defer conn.Close()
	msg := &ICPMessage{Opcode: ICPOpQuery, Version: ICPVersion, ReqNum: reqNum, URL: url}
	out, err := MarshalICP(msg)
	if err != nil {
		return false, err
	}
	if _, err := conn.Write(out); err != nil {
		return false, fmt.Errorf("proxy: sending ICP query: %w", err)
	}
	c.queries.Add(1)
	if err := conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return false, err
	}
	buf := make([]byte, maxICPPacket)
	n, err := conn.Read(buf)
	if err != nil {
		return false, fmt.Errorf("proxy: awaiting ICP reply: %w", err)
	}
	reply, err := UnmarshalICP(buf[:n])
	if err != nil {
		return false, err
	}
	c.replies.Add(1)
	if reply.ReqNum != reqNum {
		return false, fmt.Errorf("proxy: ICP reply for request %d, want %d", reply.ReqNum, reqNum)
	}
	return reply.Opcode == ICPOpHit, nil
}
