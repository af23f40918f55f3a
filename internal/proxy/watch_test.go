package proxy

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// afterFunc registers f as origin.Client does: through the context's
// own AfterFunc method when it has one.
func afterFunc(ctx context.Context, f func()) func() bool {
	if a, ok := ctx.(interface{ AfterFunc(func()) func() bool }); ok {
		return a.AfterFunc(f)
	}
	return context.AfterFunc(ctx, f)
}

// afterProbe is what a TestConnAfterFunc handler registers and waits on.
type afterProbe struct {
	runs         atomic.Int32
	ran          chan struct{} // closed when f first runs
	entered      chan struct{} // closed once the client may hang up
	origin       string        // a origin that reads a request and never answers
	originClosed chan struct{} // closed when the proxy closes its connection
}

func (p *afterProbe) f() {
	if p.runs.Add(1) == 1 {
		close(p.ran)
	}
}

// stallingOrigin accepts one connection, reads a request head off it,
// closes p.entered and waits for the connection to close. Its cleanup
// closes the connection, so a fetch nothing cancelled ends too.
func stallingOrigin(t *testing.T, p *afterProbe) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan net.Conn, 1)
	t.Cleanup(func() {
		ln.Close()
		select {
		case c := <-accepted:
			c.Close()
		default:
		}
	})
	p.origin = ln.Addr().String()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- c
		defer c.Close()
		br := bufio.NewReader(c)
		if _, err := http.ReadRequest(br); err != nil {
			return
		}
		close(p.entered)
		io.Copy(io.Discard, br)
		close(p.originClosed)
	}()
}

// TestConnAfterFunc pins the request context's AfterFunc and Done,
// which the client watcher serves only from watchDelay after a handler
// asks: f runs at most once, when the client leaves or when the handler
// ends without stopping it, stop reports whether it prevented the call,
// and a client that leaves before the watch is due is still noticed.
// Each case runs on both servers; net/http's context is the reference.
func TestConnAfterFunc(t *testing.T) {
	for _, tc := range []struct {
		name     string
		hangUp   bool  // the client closes once p.entered is closed
		wantRuns int32 // how often f runs
		handler  func(w http.ResponseWriter, r *http.Request, p *afterProbe) error
	}{{
		name: "stop before the hang-up", hangUp: true,
		handler: func(w http.ResponseWriter, r *http.Request, p *afterProbe) error {
			stop := afterFunc(r.Context(), p.f)
			if !stop() {
				return errors.New("stop before the hang-up returned false")
			}
			close(p.entered)
			select {
			case <-r.Context().Done():
			case <-time.After(time.Second):
				return errors.New("hang-up not seen within a second")
			}
			if stop() {
				return errors.New("a second stop returned true")
			}
			return nil
		},
	}, {
		name: "runs once on a hang-up", hangUp: true, wantRuns: 1,
		handler: func(w http.ResponseWriter, r *http.Request, p *afterProbe) error {
			stop := afterFunc(r.Context(), p.f)
			close(p.entered)
			select {
			case <-p.ran:
			case <-time.After(time.Second):
				return errors.New("f did not run within a second of the hang-up")
			}
			if r.Context().Err() != context.Canceled {
				return fmt.Errorf("Err after the hang-up: %v", r.Context().Err())
			}
			if stop() {
				return errors.New("stop after f ran returned true")
			}
			return nil
		},
	}, {
		name: "runs when the handler ends", wantRuns: 1,
		handler: func(w http.ResponseWriter, r *http.Request, p *afterProbe) error {
			afterFunc(r.Context(), p.f)
			io.WriteString(w, "ok")
			return nil
		},
	}, {
		name: "Done closes on a hang-up", hangUp: true,
		handler: func(w http.ResponseWriter, r *http.Request, p *afterProbe) error {
			done := r.Context().Done()
			close(p.entered)
			select {
			case <-done:
				return nil
			case <-time.After(time.Second):
				return errors.New("Done not closed within a second of the hang-up")
			}
		},
	}, {
		// The origin closes p.entered on reading the proxy's request, so
		// the client hangs up while the fetch waits for the head, well
		// inside watchDelay.
		name: "early hang-up during a fetch", hangUp: true,
		handler: func(w http.ResponseWriter, r *http.Request, p *afterProbe) error {
			New(NewStore(1<<20, nil)).ServeHTTP(w, r)
			select {
			case <-p.originClosed:
				return nil
			case <-time.After(time.Second):
				return errors.New("origin connection still open a second after the handler")
			}
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			forEachServer(t, func(t *testing.T, serve serveFunc) {
				p := &afterProbe{ran: make(chan struct{}), entered: make(chan struct{}), originClosed: make(chan struct{})}
				errs := make(chan error, 1)
				ts := serve(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					errs <- tc.handler(w, r, p)
				}))
				stallingOrigin(t, p) // cleaned up first, before the server shuts down
				c, err := net.Dial("tcp", ts.Listener.Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				fmt.Fprintf(c, "GET http://%s/doc HTTP/1.1\r\nHost: %s\r\n\r\n", p.origin, p.origin)
				if tc.hangUp {
					select {
					case <-p.entered:
					case <-time.After(5 * time.Second):
						t.Fatal("the handler never let the client hang up")
					}
					c.Close()
				} else {
					c.SetReadDeadline(time.Now().Add(5 * time.Second))
					resp, err := http.ReadResponse(bufio.NewReader(c), nil)
					if err != nil {
						t.Fatal(err)
					}
					resp.Body.Close()
				}
				select {
				case err := <-errs:
					if err != nil {
						t.Error(err)
					}
				case <-time.After(2 * time.Second):
					t.Fatal("handler still running")
				}
				if tc.wantRuns > 0 {
					select {
					case <-p.ran:
					case <-time.After(time.Second):
						t.Fatal("f did not run within a second of the handler's end")
					}
				}
				time.Sleep(2 * watchDelay) // a second run, or a late one, would show now
				if n := p.runs.Load(); n != tc.wantRuns {
					t.Errorf("f ran %d times, want %d", n, tc.wantRuns)
				}
			})
		})
	}
}

// missClient serves a proxy in front of rawOrigin's 10 KB documents,
// its handler followed by check, opens one connection to it and returns
// a function that fetches a document not fetched before: a miss, kept
// in a store with room for all of them. The function may be called up
// to n times.
func missClient(t *testing.T, serve serveFunc, n int, check func(http.ResponseWriter, *http.Request)) func() {
	t.Helper()
	body := pattern(10 << 10)
	addr := rawOrigin(t, body)
	srv := New(NewStore(int64(n+1)*16<<10, nil))
	ts := serve(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		srv.ServeHTTP(w, r)
		if check != nil {
			check(w, r)
		}
	}))
	c, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	reqs := make([][]byte, n+1)
	for i := range reqs {
		reqs[i] = fmt.Appendf(nil, "GET http://%s/doc-%04d.html HTTP/1.1\r\nHost: %s\r\n\r\n", addr, i, addr)
	}
	// Every response has the same length: the Date value's is fixed.
	c.Write(reqs[0])
	br := bufio.NewReader(c)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	var head bytes.Buffer
	resp.Header.Write(&head)
	got, _ := io.ReadAll(resp.Body)
	if resp.Header.Get("X-Cache") != "MISS" || !bytes.Equal(got, body) || br.Buffered() != 0 {
		t.Fatalf("first miss: %v %q, %d body bytes", resp.Status, resp.Header, len(got))
	}
	buf := make([]byte, len("HTTP/1.1 200 OK\r\n")+head.Len()+2+len(body))
	next := 1
	return func() {
		if next == len(reqs) {
			t.Fatal("missClient: every document has been fetched")
		}
		c.Write(reqs[next])
		next++
		if _, err := io.ReadFull(c, buf); err != nil {
			t.Fatal(err)
		}
	}
}

var endOfHead = []byte("\r\n\r\n")

// rawOrigin answers every request head on a connection with body under
// a Content-Length, head and body in one write. It reads heads into a
// fixed buffer, so it allocates nothing and starts no goroutine per
// request. It returns the listener's address.
func rawOrigin(t *testing.T, body []byte) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reply := append([]byte("HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: "+strconv.Itoa(len(body))+"\r\n\r\n"), body...)
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		conns []net.Conn
	)
	t.Cleanup(func() {
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
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				var buf [8 << 10]byte
				n := 0
				for n < len(buf) {
					m, err := c.Read(buf[n:])
					if err != nil {
						return
					}
					n += m
					for {
						i := bytes.Index(buf[:n], endOfHead)
						if i < 0 {
							break
						}
						n = copy(buf[:], buf[i+len(endOfHead):n])
						c.Write(reply)
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestConnFastMissStartsNoGoroutine serves misses over loopback and
// counts goroutines inside the handler, after the fetch: a miss that
// ends before watchDelay starts none, as a hit starts none (the client
// watcher would be one more). A slower miss, as under the race
// detector on a busy machine, is not counted.
func TestConnFastMissStartsNoGoroutine(t *testing.T) {
	const misses = 50
	during := make(chan int, 1)
	miss := missClient(t, newConnTestServer, misses, func(http.ResponseWriter, *http.Request) {
		during <- runtime.NumGoroutine()
	})
	<-during // the miss missClient makes itself
	fast := 0
	for i := range misses {
		idle := runtime.NumGoroutine()
		start := time.Now()
		miss()
		n := <-during
		if time.Since(start) >= watchDelay {
			continue
		}
		fast++
		if n > idle {
			t.Fatalf("miss %d ran beside %d goroutines, %d before it", i, n, idle)
		}
	}
	if fast < misses/5 {
		t.Errorf("only %d of %d misses ended within watchDelay", fast, misses)
	}
}

// TestConnMissIsOneWritev counts the write system calls of the process
// while misses of a 10 KB document are served over loopback: the
// client's request, the proxy's request upstream, the origin's reply
// and one writev of head and body to the client.
func TestConnMissIsOneWritev(t *testing.T) {
	const misses = 200
	miss := missClient(t, newConnTestServer, misses, nil)
	before := syscw(t)
	for range misses {
		miss()
	}
	if per := float64(syscw(t)-before) / misses; per > 4.05 {
		t.Errorf("%.2f write calls per miss, want 4: the request, the upstream request, the origin's reply and one writev", per)
	}
}

// TestConnMissAllocs bounds what a miss allocates above the standard
// library's framing: http.ReadRequest of the client's request, the
// upstream request built and written, and http.ReadResponse of the
// origin's head. The rest is the miss's own: among them the request
// context and its stop function, and the stored object and its body;
// taking and probing the pooled upstream connection allocates nothing.
// A context and a watcher goroutine per miss would add about ten. It
// logs net/http's count for the same miss.
func TestConnMissAllocs(t *testing.T) {
	const runs = 200
	req := []byte("GET http://origin.example/doc-0001.html HTTP/1.1\r\nHost: origin.example\r\n\r\n")
	reply := []byte("HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: 10240\r\n\r\n")
	var rd bytes.Reader
	br := bufio.NewReader(&rd)
	bw := bufio.NewWriter(io.Discard)
	framing := testing.AllocsPerRun(runs, func() {
		rd.Reset(req)
		br.Reset(&rd)
		http.ReadRequest(br)
		out, _ := http.NewRequestWithContext(context.Background(), http.MethodGet, "http://origin.example/doc-0001.html", nil)
		out.Write(bw)
		bw.Flush()
		rd.Reset(reply)
		br.Reset(&rd)
		http.ReadResponse(br, out)
	})
	owned := testing.AllocsPerRun(runs, missClient(t, newConnTestServer, runs+1, nil))
	std := testing.AllocsPerRun(runs, missClient(t, newHTTPTestServer, runs+1, nil))
	t.Logf("a miss allocates %.0f times through the loop and %.0f through net/http; the framing %.0f", owned, std, framing)
	if owned-framing > 12 {
		t.Errorf("a miss allocates %.0f times, %.0f above the framing's %.0f; want at most 12 above", owned, owned-framing, framing)
	}
}
