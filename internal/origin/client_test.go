package origin

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// scriptedOrigin is an upstream on a raw socket. The req-th request (from
// 1) on the conn-th connection it accepts (from 1) gets reply(conn, req),
// written in one piece; hangUp, or an empty reply, closes the connection
// after it. It returns the listener's address and its accept count.
func scriptedOrigin(tb testing.TB, reply func(conn, req int) (out string, hangUp bool)) (string, *atomic.Int64) {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	var (
		dials atomic.Int64
		wg    sync.WaitGroup
		mu    sync.Mutex
		conns []net.Conn
	)
	tb.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed by the cleanup
			}
			n := int(dials.Add(1))
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				br := bufio.NewReader(c)
				for req := 1; ; req++ {
					r, err := http.ReadRequest(br)
					if err != nil {
						return
					}
					io.Copy(io.Discard, r.Body)
					out, hangUp := reply(n, req)
					if out == "" {
						return
					}
					if _, err := io.WriteString(c, out); err != nil || hangUp {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), &dials
}

// okReply is a 200 response carrying body under its length.
func okReply(body string) string {
	return fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
}

// whoAnswers replies to every request with the connection and request
// numbers that served it.
func whoAnswers(conn, req int) (string, bool) {
	return okReply(fmt.Sprintf("c%d r%d", conn, req)), false
}

// patternBody is n bytes with a period of 251, which no power-of-two
// buffer lines up with.
func patternBody(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i % 251)
	}
	return string(b)
}

// clientStep is one request of a TestClient case.
type clientStep struct {
	method string // "" is GET
	https  bool   // ask for an https:// URL
	early  bool   // Close the body after its first read
	relay  bool   // relay the body with WriteTo through a net/http server and read it back there
	want   string // the body
	err    bool   // the request or its body must fail
	idle   int    // connections in the pool after the step; -1 leaves it unchecked
}

// clientCase is a scripted origin and the requests TestClient makes of
// it; dials is how many connections the origin should accept.
type clientCase struct {
	name  string
	reply func(conn, req int) (string, bool)
	steps []clientStep
	dials int64
}

// TestClient pins the upstream client's framing and reuse rules against
// scripted origins: which connections go back to the pool, which
// requests are retried, and that a body arrives byte for byte, read
// directly or relayed by WriteTo through a net/http server (the splice
// route on Linux).
func TestClient(t *testing.T) {
	const chunked = "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n"
	// The origin closes its first connection on the second request
	// without a reply: the keep-alive race a pooled connection can lose.
	dropsSecond := func(conn, req int) (string, bool) {
		if conn == 1 && req == 2 {
			return "", true
		}
		return whoAnswers(conn, req)
	}
	cases := []clientCase{
		{"keep-alive", whoAnswers,
			[]clientStep{{want: "c1 r1", idle: 1}, {want: "c1 r2", idle: 1}, {want: "c1 r3", idle: 1}}, 1},
		{"stale pooled connection, GET retried once", dropsSecond,
			[]clientStep{{want: "c1 r1", idle: 1}, {want: "c2 r1", idle: 1}}, 2},
		{"stale pooled connection, POST never retried", dropsSecond,
			[]clientStep{{want: "c1 r1", idle: 1}, {method: http.MethodPost, err: true}, {want: "c2 r1", idle: 1}}, 2},
		{"origin closed the idle connection", func(conn, req int) (string, bool) {
			out, _ := whoAnswers(conn, req)
			return out, conn == 1
		}, []clientStep{{want: "c1 r1", idle: 1}, {want: "c2 r1", idle: 1}}, 2},
		{"body overruns its Content-Length", func(conn, req int) (string, bool) {
			if conn == 1 {
				return "HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabc and a surplus", false
			}
			return whoAnswers(conn, req)
		}, []clientStep{{want: "abc"}, {want: "c2 r1", idle: 1}}, 2},
		{"chunked", func(int, int) (string, bool) { return chunked, false },
			[]clientStep{{want: "hello world", idle: 1}, {want: "hello world", idle: 1}}, 1},
		{"close-delimited", func(int, int) (string, bool) { return "HTTP/1.1 200 OK\r\n\r\nuntil the end", true },
			[]clientStep{{want: "until the end"}, {want: "until the end"}}, 2},
		{"1xx before the 200", func(int, int) (string, bool) {
			return "HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 103 Early Hints\r\nLink: </s.css>\r\n\r\n" + okReply("final"), false
		}, []clientStep{{want: "final", idle: 1}, {want: "final", idle: 1}}, 1},
		{"early Close", func(conn, req int) (string, bool) {
			if conn == 1 {
				return okReply(strings.Repeat("x", 100<<10)), false
			}
			return whoAnswers(conn, req)
		}, []clientStep{{early: true}, {want: "c2 r1", idle: 1}}, 2},
		{"https", whoAnswers, []clientStep{{https: true, err: true}}, 0},
	}
	for _, n := range []int{0, 1, 4095, 4096, 4097, 1<<20 + 1} {
		body := patternBody(n)
		cases = append(cases, clientCase{fmt.Sprintf("relayed by WriteTo, %d bytes", n), func(int, int) (string, bool) { return okReply(body), false },
			// The relay pools its connection just after the last byte
			// leaves, which can be after the client has it.
			[]clientStep{{relay: true, want: body, idle: -1}, {relay: true, want: body, idle: -1}}, 1})
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr, dials := scriptedOrigin(t, tc.reply)
			c := NewClient(nil)
			t.Cleanup(c.CloseIdleConnections)
			target := "http://" + addr + "/doc"

			relay := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				req, _ := http.NewRequestWithContext(r.Context(), http.MethodGet, target, nil)
				resp, err := c.RoundTrip(req)
				if err != nil {
					http.Error(w, err.Error(), http.StatusBadGateway)
					return
				}
				defer resp.Body.Close()
				w.Header().Set("Content-Length", strconv.FormatInt(resp.ContentLength, 10))
				if _, err := resp.Body.(io.WriterTo).WriteTo(w); err != nil {
					t.Errorf("relay: %v", err)
				}
			}))
			defer relay.Close()

			for i, st := range tc.steps {
				var got []byte
				var err error
				switch {
				case st.relay:
					var resp *http.Response
					if resp, err = http.Get(relay.URL); err == nil {
						got, err = io.ReadAll(resp.Body)
						resp.Body.Close()
					}
				default:
					method, url := st.method, target
					if method == "" {
						method = http.MethodGet
					}
					if st.https {
						url = "https://" + addr + "/doc"
					}
					var body io.Reader
					if method == http.MethodPost {
						body = strings.NewReader("form")
					}
					req, _ := http.NewRequest(method, url, body)
					var resp *http.Response
					if resp, err = c.RoundTrip(req); err != nil {
						break
					}
					if st.early {
						// One read empties the reader's buffer, so only
						// the unread rest of the body forbids reuse.
						_, err = resp.Body.Read(make([]byte, 32<<10))
						resp.Body.Close()
						break
					}
					got, err = io.ReadAll(resp.Body)
					resp.Body.Close()
				}
				switch {
				case st.err && err == nil:
					t.Fatalf("step %d: read %q, want a failure", i, got)
				case !st.err && err != nil:
					t.Fatalf("step %d: %v", i, err)
				case !bytes.Equal(got, []byte(st.want)):
					t.Fatalf("step %d: %d body bytes differ from the %d the origin sent (%.40q)", i, len(got), len(st.want), got)
				}
				c.mu.Lock()
				idle := c.nidle
				c.mu.Unlock()
				if st.idle >= 0 && idle != st.idle {
					t.Fatalf("step %d: %d pooled connections, want %d", i, idle, st.idle)
				}
			}
			if got := dials.Load(); got != tc.dials {
				t.Errorf("origin accepted %d connections, want %d", got, tc.dials)
			}
		})
	}
}

// frame parses reply as the answer to a GET with the standard library
// alone, the oracle for FuzzUpstreamResponse: framed means a final
// response whose body ended at its own framing and that allows the
// connection's reuse, surplus that bytes follow it; body is what a
// client should deliver when framed.
func frame(reply []byte) (framed, surplus bool, body []byte) {
	br := bufio.NewReader(bytes.NewReader(reply))
	req := httptest.NewRequest(http.MethodGet, "http://fuzz.example/", nil)
	var resp *http.Response
	for {
		var err error
		if resp, err = http.ReadResponse(br, req); err != nil || resp.StatusCode == http.StatusSwitchingProtocols {
			return false, false, nil
		}
		if resp.StatusCode >= 200 {
			break
		}
	}
	body, err := io.ReadAll(resp.Body)
	_, more := br.Peek(1)
	return err == nil && !resp.Close, more == nil, body
}

// fuzzReply builds an upstream's reply from a seeded script: interim
// responses, a status line, framing headers that may agree, conflict or
// lie, a body (chunked or not), surplus bytes, truncation and flipped
// bytes, each with some probability. n bounds the body's size.
func fuzzReply(seed int64, n uint16) []byte {
	rng := rand.New(rand.NewSource(seed))
	pick := func(opts ...string) string { return opts[rng.Intn(len(opts))] }
	junk := func(k int) []byte {
		b := make([]byte, k)
		rng.Read(b)
		return b
	}
	var b bytes.Buffer
	for i := rng.Intn(3); i > 0; i-- {
		b.WriteString(pick("HTTP/1.1 100 Continue\r\n\r\n", "HTTP/1.1 103 Early Hints\r\nLink: </a>\r\n\r\n"))
	}
	b.WriteString(pick("HTTP/1.1 200 OK\r\n", "HTTP/1.1 200 OK\r\n", "HTTP/1.0 200 OK\r\n",
		"HTTP/1.1 404 Not Found\r\n", "HTTP/1.1 204 No Content\r\n", "HTTP/1.1 304 Not Modified\r\n",
		"HTTP/1.1 101 Switching Protocols\r\n", "HTTP/1.1 199 Odd\r\n", "HTTP/9.9 2x0\r\n"))
	size := int(n % 6000)
	isChunked := false
	for i := rng.Intn(5); i > 0; i-- {
		switch rng.Intn(7) {
		case 0, 1:
			fmt.Fprintf(&b, "Content-Length: %d\r\n", size+rng.Intn(5)-2)
		case 2:
			b.WriteString("Transfer-Encoding: chunked\r\n")
			isChunked = true
		case 3:
			b.WriteString("Connection: close\r\n")
		case 4:
			b.WriteString("Connection: keep-alive\r\n")
		case 5:
			b.WriteString("X-Pad: " + strings.Repeat("p", rng.Intn(64)) + "\r\n")
		case 6:
			b.Write(junk(rng.Intn(8)))
			b.WriteString("\r\n")
		}
	}
	b.WriteString("\r\n")
	body := bytes.Repeat([]byte{'b'}, size)
	if isChunked {
		for len(body) > 0 {
			k := min(len(body), 1+rng.Intn(2048))
			fmt.Fprintf(&b, "%x\r\n%s\r\n", k+rng.Intn(3)/2, body[:k]) // now and then a wrong size
			body = body[k:]
		}
		b.WriteString(pick("0\r\n\r\n", "0\r\n\r\n", "0\r\nX-Trailer: t\r\n\r\n", "0\r\n"))
	} else {
		b.Write(body)
	}
	if rng.Intn(4) == 0 {
		b.Write(junk(1 + rng.Intn(32)))
	}
	out := b.Bytes()
	if rng.Intn(4) == 0 {
		out = out[:rng.Intn(len(out)+1)]
	}
	if rng.Intn(4) == 0 {
		for i := rng.Intn(3); i >= 0 && len(out) > 0; i-- {
			out[rng.Intn(len(out))] = byte(rng.Intn(256))
		}
	}
	return out
}

// FuzzUpstreamResponse feeds the client scripted replies and checks it
// against frame: it never panics, never delivers more than a declared
// length, pools a connection only after a cleanly framed response (and
// always after one with nothing past it), and a second request on the
// pool reads its own response.
func FuzzUpstreamResponse(f *testing.F) {
	f.Add(int64(1), uint16(100))
	f.Add(int64(7), uint16(4096))
	f.Add(int64(42), uint16(0))
	f.Add(int64(-3), uint16(5000))
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		reply := fuzzReply(seed, n)
		framed, surplus, want := frame(reply)
		const second = "second"
		addr, _ := scriptedOrigin(t, func(conn, req int) (string, bool) {
			if conn == 1 && req == 1 {
				return string(reply), !framed || surplus
			}
			return okReply(second), false
		})
		c := NewClient(nil)
		defer c.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		get := func() (*http.Response, error) {
			req, _ := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/", nil)
			return c.RoundTrip(req)
		}

		resp, err := get()
		if err != nil {
			if framed {
				t.Fatalf("RoundTrip: %v on a framed reply %q", err, reply)
			}
		} else {
			var got bytes.Buffer
			if seed%2 == 0 {
				_, err = resp.Body.(io.WriterTo).WriteTo(&got)
			} else {
				_, err = got.ReadFrom(resp.Body)
			}
			resp.Body.Close()
			if resp.ContentLength >= 0 && int64(got.Len()) > resp.ContentLength {
				t.Fatalf("delivered %d body bytes past a declared %d", got.Len(), resp.ContentLength)
			}
			if framed && (err != nil || !bytes.Equal(got.Bytes(), want)) {
				t.Fatalf("framed reply %q: body %q, err %v; want %q", reply, got.Bytes(), err, want)
			}
		}
		c.mu.Lock()
		pooled := c.nidle == 1
		c.mu.Unlock()
		if pooled && !framed || framed && !surplus && !pooled {
			t.Fatalf("pooled %v after reply %q (framed %v, surplus %v)", pooled, reply, framed, surplus)
		}

		resp, err = get()
		if err != nil {
			t.Fatalf("second request: %v", err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || string(got) != second {
			t.Fatalf("second request read %q, %v; want its own response after reply %q", got, err, reply)
		}
	})
}
