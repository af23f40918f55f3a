package proxy

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// stubHandler answers by path, /<kind>/<n>, the same way under any
// server, so the owned loop and net/http can be compared on it.
func stubHandler(w http.ResponseWriter, r *http.Request) {
	kind, num, _ := strings.Cut(strings.TrimPrefix(r.URL.Path, "/"), "/")
	n, _ := strconv.Atoi(num)
	body := bytes.Repeat([]byte{'x'}, n)
	switch kind {
	case "len": // a declared length
		w.Header().Set("Content-Length", num)
		w.Write(body)
	case "watch": // as len, after asking for the client watcher
		_ = r.Context().Done()
		w.Header().Set("Content-Length", num)
		w.Write(body)
	case "chunk": // no declared length, and an empty write as relayBody's last
		w.Write(body)
		w.Write(nil)
	case "read": // reads the request body and answers its length
		b, err := io.ReadAll(r.Body)
		if err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		fmt.Fprint(w, len(b))
	case "status":
		w.WriteHeader(n)
	case "short": // declares more than it writes
		w.Header().Set("Content-Length", strconv.Itoa(n+10))
		w.Write(body)
	case "panic":
		panic(http.ErrAbortHandler)
	default: // leaves any request body unread
		w.Header().Set("Content-Type", "text/plain")
		io.WriteString(w, "ok")
	}
}

// rawExchange sends script on a fresh connection to addr, half-closes
// it and reads responses until the server closes. methods[i] is the
// method of the ith request, which says whether its response has a
// body. It returns the status of every response, interim ones too.
func rawExchange(t testing.TB, addr string, script []byte, methods []string) []int {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c.SetDeadline(time.Now().Add(10 * time.Second))
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		c.Write(script)
		c.(*net.TCPConn).CloseWrite()
	}()
	defer func() { c.Close(); <-wrote }()
	br := bufio.NewReader(c)
	var statuses []int
	for i := 0; i < len(methods); {
		resp, err := http.ReadResponse(br, &http.Request{Method: methods[i]})
		if err != nil {
			break
		}
		statuses = append(statuses, resp.StatusCode)
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			break
		}
		if resp.StatusCode >= 200 {
			i++
		}
	}
	return statuses
}

// connScript builds one connection's worth of requests from seed: up to
// eight pipelined requests drawn from what a proxy meets (both request
// forms, HTTP/1.0 and 1.1, HEAD, bodies with a length or chunked,
// Expect, keep-alive and close) and what it must refuse (no Host in
// origin form, duplicate Host, an invalid Host, an oversize head, an
// unknown transfer coding, a line that is not a request). It returns the
// bytes and each request's method. An absolute-form request always
// carries one valid Host line: the loop cannot see a Host line beside
// an absolute target, which DESIGN.md lists as a difference from
// net/http, and TestConnAbsoluteFormHost pins.
func connScript(seed int64, n uint8) ([]byte, []string) {
	rng := rand.New(rand.NewSource(seed))
	pick := func(vs ...string) string { return vs[rng.Intn(len(vs))] }
	var b bytes.Buffer
	var methods []string
	for i := 0; i <= int(n%8); i++ {
		method, proto, eol := "GET", "HTTP/1.1", "\r\n"
		path := "/" + pick("len", "chunk", "watch", "status", "short", "panic", "read", "ignore") + "/"
		switch path {
		case "/status/":
			path += pick("204", "304", "404", "200")
		case "/chunk/":
			path += pick("0", "10", "2048", "2049", "5000")
		default:
			path += pick("0", "5", "4096", "10000")
		}
		if rng.Intn(10) == 0 {
			method = http.MethodHead
		}
		switch rng.Intn(20) {
		case 0, 1, 2:
			proto = "HTTP/1.0"
		case 3:
			proto = "HTTP/2.0"
		}
		if rng.Intn(10) == 0 {
			eol = "\n"
		}
		target := path
		if rng.Intn(3) == 0 {
			target = "http://origin.example" + path
		}
		hdr := []string{"Host: origin.example"}
		switch rng.Intn(25) {
		case 0:
			hdr = append(hdr, "Host: other.example")
		case 1:
			if target == path {
				hdr = nil
			}
		case 2:
			if target == path {
				hdr = []string{"Host: bad host"}
			}
		case 3:
			hdr = append(hdr, "X-Big: "+strings.Repeat("y", maxHeadBytes))
		}
		switch rng.Intn(6) {
		case 0:
			hdr = append(hdr, "Connection: close")
		case 1:
			hdr = append(hdr, "Connection: keep-alive")
		}
		var body string
		if path == "/read/" || strings.HasPrefix(path, "/ignore") || rng.Intn(8) == 0 {
			method = http.MethodPost
			size := []int{0, 5, 3000, 300 << 10}[rng.Intn(4)]
			if size == 300<<10 && rng.Intn(4) != 0 {
				size = 7
			}
			data := strings.Repeat("z", size)
			switch rng.Intn(4) {
			case 0:
				hdr = append(hdr, "Transfer-Encoding: chunked")
				if size > 0 {
					body = strconv.FormatInt(int64(size), 16) + "\r\n" + data + "\r\n"
				}
				body += "0\r\n\r\n"
			case 1:
				hdr = append(hdr, "Transfer-Encoding: gzip")
			default:
				hdr = append(hdr, "Content-Length: "+strconv.Itoa(size))
				body = data
			}
			switch rng.Intn(8) {
			case 0:
				hdr = append(hdr, "Expect: 100-continue")
			case 1:
				hdr = append(hdr, "Expect: teapot")
			}
		}
		if rng.Intn(30) == 0 {
			b.WriteString("NOT A REQUEST" + eol + eol)
			methods = append(methods, "GET")
			continue
		}
		b.WriteString(method + " " + target + " " + proto + eol)
		for _, h := range hdr {
			b.WriteString(h + eol)
		}
		b.WriteString(eol + body)
		methods = append(methods, method)
	}
	return b.Bytes(), methods
}

// logCapture collects what the standard logger prints while a test runs.
type logCapture struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *logCapture) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *logCapture) take() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.buf.String()
	l.buf.Reset()
	return s
}

func captureLog(t testing.TB) *logCapture {
	l := &logCapture{}
	log.SetOutput(l)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	return l
}

// FuzzServeConn feeds one connection's worth of requests to the owned
// loop and to net/http.Server, both in front of stubHandler, and
// requires the same status codes in the same order, so the same
// requests answered and the connection closed after the same one. The
// loop must not log a panic, which would be its own.
func FuzzServeConn(f *testing.F) {
	for seed := int64(1); seed <= 12; seed++ {
		f.Add(seed, uint8(seed*5))
	}
	logged := captureLog(f)
	owned := newConnTestServer(f, http.HandlerFunc(stubHandler))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	std := &http.Server{Handler: http.HandlerFunc(stubHandler), ErrorLog: log.New(io.Discard, "", 0)}
	go std.Serve(ln)
	f.Cleanup(func() { std.Close() })
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		script, methods := connScript(seed, n)
		got := rawExchange(t, owned.Listener.Addr().String(), script, methods)
		want := rawExchange(t, ln.Addr().String(), script, methods)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("statuses %v, net/http %v, for\n%.2000q", got, want, script)
		}
		if s := logged.take(); s != "" {
			t.Fatalf("the loop logged %s", s)
		}
	})
}

// TestConnAbsoluteFormHost pins what the loop does differently from
// net/http with Host lines: http.ReadRequest drops a Host line beside
// an absolute target, so such a request is served without one or with
// an invalid one (net/http answers 400), while an empty Host in origin
// form is refused (net/http serves it).
func TestConnAbsoluteFormHost(t *testing.T) {
	ts := newConnTestServer(t, http.HandlerFunc(stubHandler))
	for _, tc := range []struct {
		script string
		want   int
	}{
		{"GET http://origin.example/len/1 HTTP/1.1\r\n\r\n", http.StatusOK},
		{"GET http://origin.example/len/1 HTTP/1.1\r\nHost: bad host\r\n\r\n", http.StatusOK},
		{"GET /len/1 HTTP/1.1\r\nHost:\r\n\r\n", http.StatusBadRequest},
	} {
		if got := rawExchange(t, ts.Listener.Addr().String(), []byte(tc.script), []string{"GET"}); len(got) != 1 || got[0] != tc.want {
			t.Errorf("%q: statuses %v, want [%d]", tc.script, got, tc.want)
		}
	}
}

// readRaw sends script and returns everything the server sends until
// it closes the connection.
func readRaw(t *testing.T, addr, script string) string {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	io.WriteString(c, script)
	c.(*net.TCPConn).CloseWrite()
	b, _ := io.ReadAll(c)
	return string(b)
}

// TestConnFraming pins the bytes of the loop's responses: one head per
// response with Date and framing, a body held back to 2 KiB gets a
// Content-Length, a longer one is chunked to HTTP/1.1 and ends the
// connection to HTTP/1.0, bodiless responses carry no framing, and no
// Content-Type is sniffed.
func TestConnFraming(t *testing.T) {
	ts := newConnTestServer(t, http.HandlerFunc(stubHandler))
	addr := ts.Listener.Addr().String()
	for _, tc := range []struct {
		name, script string
		want, not    []string
	}{
		{"declared", "GET /len/3 HTTP/1.1\r\nHost: h\r\n\r\n",
			[]string{"HTTP/1.1 200 OK\r\n", "Content-Length: 3\r\n", "Date: ", "\r\n\r\nxxx"}, []string{"Content-Type", "Connection"}},
		{"held back", "GET /chunk/2048 HTTP/1.1\r\nHost: h\r\n\r\n",
			[]string{"Content-Length: 2048\r\n"}, []string{"chunked", "Content-Type"}},
		{"chunked", "GET /chunk/2049 HTTP/1.1\r\nHost: h\r\n\r\n",
			[]string{"Transfer-Encoding: chunked\r\n", "\r\n\r\n801\r\n" + strings.Repeat("x", 2049) + "\r\n0\r\n\r\n"}, []string{"Content-Length"}},
		{"HTTP/1.0 close-delimited", "GET /chunk/5000 HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
			[]string{"HTTP/1.0 200 OK\r\n", "\r\n\r\n" + strings.Repeat("x", 5000)}, []string{"Content-Length", "chunked", "Connection"}},
		{"HTTP/1.0 keep-alive", "GET /len/1 HTTP/1.0\r\nConnection: keep-alive\r\n\r\nGET /len/2 HTTP/1.0\r\n\r\n",
			[]string{"Connection: keep-alive\r\n", "\r\n\r\nx", "\r\n\r\nxx"}, nil},
		{"HEAD", "HEAD /len/5 HTTP/1.1\r\nHost: h\r\n\r\n",
			[]string{"Content-Length: 5\r\n"}, []string{"xxxxx"}},
		{"304", "GET /status/304 HTTP/1.1\r\nHost: h\r\n\r\n",
			[]string{"HTTP/1.1 304 Not Modified\r\n"}, []string{"Content-Length", "chunked"}},
		{"close", "GET /len/1 HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\nGET /len/2 HTTP/1.1\r\nHost: h\r\n\r\n",
			[]string{"Connection: close\r\n"}, []string{"xx"}},
		{"100-continue", "POST /read/0 HTTP/1.1\r\nHost: h\r\nExpect: 100-continue\r\nContent-Length: 3\r\n\r\nabc",
			[]string{"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\n", "\r\n\r\n3"}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := readRaw(t, addr, tc.script)
			for _, w := range tc.want {
				if !strings.Contains(got, w) {
					t.Errorf("response lacks %q:\n%q", w, got)
				}
			}
			for _, w := range tc.not {
				if strings.Contains(got, w) {
					t.Errorf("response has %q:\n%q", w, got)
				}
			}
		})
	}
}

// TestConnWriteBeyondLength: a handler's Write past its declared
// Content-Length fails, and one that writes less ends the connection.
func TestConnWriteBeyondLength(t *testing.T) {
	werr := make(chan error, 1)
	ts := newConnTestServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "3")
		w.Write([]byte("ab"))
		_, err := w.Write([]byte("cd"))
		werr <- err
	}))
	got := readRaw(t, ts.Listener.Addr().String(), "GET / HTTP/1.1\r\nHost: h\r\n\r\nGET / HTTP/1.1\r\nHost: h\r\n\r\n")
	if err := <-werr; err != http.ErrContentLength {
		t.Errorf("Write past the length: %v, want http.ErrContentLength", err)
	}
	if strings.Count(got, "HTTP/1.1 200") != 1 || !strings.HasSuffix(got, "\r\n\r\nab") {
		t.Errorf("got %q, want one response cut after its 2 bytes", got)
	}
}

// TestConnPanicClosesConnection: a panicking handler's connection is
// closed without a response; http.ErrAbortHandler is not logged, any
// other panic is.
func TestConnPanicClosesConnection(t *testing.T) {
	logged := captureLog(t)
	ts := newConnTestServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/abort" {
			panic(http.ErrAbortHandler)
		}
		panic("handler bug")
	}))
	addr := ts.Listener.Addr().String()
	if got := readRaw(t, addr, "GET /abort HTTP/1.1\r\nHost: h\r\n\r\n"); got != "" {
		t.Errorf("aborted handler sent %q", got)
	}
	if s := logged.take(); s != "" {
		t.Errorf("http.ErrAbortHandler logged %q", s)
	}
	if got := readRaw(t, addr, "GET /bug HTTP/1.1\r\nHost: h\r\n\r\n"); got != "" {
		t.Errorf("panicking handler sent %q", got)
	}
	if s := logged.take(); !strings.Contains(s, "handler bug") {
		t.Errorf("panic logged %q", s)
	}
}

// TestConnIdleTimeout: a client that sends nothing, and one that stops
// halfway through a request line, are disconnected at the idle timeout
// (the second after net/http's 400 for the line it has), and nothing is
// left running.
func TestConnIdleTimeout(t *testing.T) {
	before := runtime.NumGoroutine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewConnServer(http.HandlerFunc(stubHandler))
	srv.idleTimeout = 50 * time.Millisecond
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	for send, want := range map[string]string{"": "", "GET /len/1 HT": "HTTP/1.1 400 "} {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		io.WriteString(c, send)
		c.SetDeadline(time.Now().Add(5 * time.Second))
		start := time.Now()
		got, err := io.ReadAll(c)
		if err != nil || !strings.HasPrefix(string(got), want) || want == "" && len(got) > 0 {
			t.Errorf("after %q: read %q, %v; want %q and the connection closed", send, got, err, want)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Errorf("after %q: closed after %v", send, d)
		}
		c.Close()
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	<-served
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after", before, runtime.NumGoroutine())
		}
	}
}

// TestConnShutdown: Shutdown closes an idle connection at once, lets a
// request in flight finish, and then returns.
func TestConnShutdown(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewConnServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			close(entered)
			<-release
		}
		io.WriteString(w, "done")
	}))
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	idle, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	busy, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	io.WriteString(busy, "GET /slow HTTP/1.1\r\nHost: h\r\n\r\n")
	<-entered
	idle.SetDeadline(time.Now().Add(5 * time.Second))
	busy.SetDeadline(time.Now().Add(5 * time.Second))

	shut := make(chan error, 1)
	go func() { shut <- srv.Shutdown(context.Background()) }()
	if _, err := idle.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("idle connection: %v, want closed", err)
	}
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned %v with a request in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	resp, err := http.ReadResponse(bufio.NewReader(busy), nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	if string(body) != "done" || !resp.Close {
		t.Errorf("in-flight request: body %q, close %v; want done and Connection: close", body, resp.Close)
	}
	if err := <-shut; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	if err := <-served; err != http.ErrServerClosed {
		t.Errorf("Serve: %v", err)
	}
}

// TestConnWatcherKeepsPipelinedByte: a handler that asks for the
// request's Done channel starts the client watcher, which reads the
// first byte of a request the client pipelines meanwhile; that request
// is still served whole, and the first one's context is not cancelled.
func TestConnWatcherKeepsPipelinedByte(t *testing.T) {
	entered := make(chan struct{})
	errs := make(chan error, 2)
	ts := newConnTestServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		done := r.Context().Done()
		if r.URL.Path == "/first" {
			close(entered)
			time.Sleep(50 * time.Millisecond) // the watcher reads a byte of /second
		}
		select {
		case <-done:
			errs <- fmt.Errorf("%s: context done", r.URL.Path)
		default:
			errs <- nil
		}
		io.WriteString(w, r.Method+" "+r.URL.Path)
	}))
	c, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	io.WriteString(c, "GET /first HTTP/1.1\r\nHost: h\r\n\r\n")
	<-entered
	io.WriteString(c, "GET /second HTTP/1.1\r\nHost: h\r\n\r\n")
	br := bufio.NewReader(c)
	for _, want := range []string{"GET /first", "GET /second"} {
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("%s: %v", want, err)
		}
		body, _ := io.ReadAll(resp.Body)
		if string(body) != want {
			t.Errorf("body %q, want %q", body, want)
		}
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestConnContextCancelledOnHangUp: a handler waiting on its request's
// context sees it cancelled when the client hangs up, and after it
// returns the context reports Canceled.
func TestConnContextCancelledOnHangUp(t *testing.T) {
	ctxs := make(chan context.Context, 1)
	ts := newConnTestServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
		ctxs <- r.Context()
	}))
	c, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(c, "GET / HTTP/1.1\r\nHost: h\r\n\r\n")
	time.Sleep(20 * time.Millisecond)
	start := time.Now()
	c.Close()
	ctx := <-ctxs
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("handler saw the hang-up after %v", d)
	}
	ts.Close()
	if ctx.Err() != context.Canceled {
		t.Errorf("context after the handler: %v, want Canceled", ctx.Err())
	}
}

// hitClient serves a proxy holding a 10 KB document, its handler
// followed by check, opens one connection to it and returns a function
// that fetches the document once as a hit.
func hitClient(t *testing.T, serve serveFunc, check func(http.ResponseWriter, *http.Request)) func() {
	t.Helper()
	store := NewStore(1<<20, nil)
	const url = "http://origin.example/doc.html"
	body := pattern(10 << 10)
	if !store.Put(url, &Object{Body: body, ContentType: "text/html", StoredAt: time.Now().Add(time.Hour)}) {
		t.Fatal("Put refused the document")
	}
	srv := New(store)
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
	req := []byte("GET " + url + " HTTP/1.1\r\nHost: origin.example\r\n\r\n")
	// Every response has the same length: the Date value's is fixed.
	io.WriteString(c, string(req))
	br := bufio.NewReader(c)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	var head bytes.Buffer
	resp.Header.Write(&head)
	got, _ := io.ReadAll(resp.Body)
	if resp.Header.Get("X-Cache") != "HIT" || !bytes.Equal(got, body) || br.Buffered() != 0 {
		t.Fatalf("first hit: %v %q, %d body bytes", resp.Status, resp.Header, len(got))
	}
	respLen := len("HTTP/1.1 200 OK\r\n") + head.Len() + 2 + len(body)
	buf := make([]byte, respLen)
	return func() {
		c.Write(req)
		if _, err := io.ReadFull(c, buf); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConnHitStartsNoGoroutine serves hits over loopback and counts
// goroutines inside the handler: no more than just before the request,
// so a hit starts none (net/http's background read would be one more).
// Fewer is another test's goroutine exiting late, not the hit's doing.
func TestConnHitStartsNoGoroutine(t *testing.T) {
	during := make(chan int, 1)
	hit := hitClient(t, newConnTestServer, func(http.ResponseWriter, *http.Request) {
		during <- runtime.NumGoroutine()
	})
	<-during // the hit hitClient makes itself
	for i := range 50 {
		idle := runtime.NumGoroutine()
		hit()
		if n := <-during; n > idle {
			t.Fatalf("hit %d ran beside %d goroutines, %d before it", i, n, idle)
		}
	}
}

// TestConnHitAllocs bounds what a hit allocates through the loop above
// http.ReadRequest's own allocations: the request's context, and the
// cache key the handler formats. It logs net/http's count for the same
// hit (DESIGN.md §11 has both).
func TestConnHitAllocs(t *testing.T) {
	req := []byte("GET http://origin.example/doc.html HTTP/1.1\r\nHost: origin.example\r\n\r\n")
	var rd bytes.Reader
	br := bufio.NewReader(&rd)
	parse := testing.AllocsPerRun(200, func() {
		rd.Reset(req)
		br.Reset(&rd)
		http.ReadRequest(br)
	})
	owned := testing.AllocsPerRun(200, hitClient(t, newConnTestServer, nil))
	std := testing.AllocsPerRun(200, hitClient(t, newHTTPTestServer, nil))
	t.Logf("a hit allocates %.0f times through the loop and %.0f through net/http; http.ReadRequest %.0f", owned, std, parse)
	if owned-parse > 2 {
		t.Errorf("a hit allocates %.0f times above http.ReadRequest's %.0f, want at most 2", owned-parse, parse)
	}
}

// TestConnHitIsOneWrite counts the write system calls of the process
// while hits of a 10 KB document are served over loopback: the client's
// request and one writev of head and body (net/http takes two writes
// for a body past its 4 KiB buffer).
func TestConnHitIsOneWrite(t *testing.T) {
	if _, err := os.ReadFile("/proc/self/io"); err != nil {
		t.Skip("no /proc/self/io:", err)
	}
	hit := hitClient(t, newConnTestServer, nil)
	syscw := func() int64 {
		b, err := os.ReadFile("/proc/self/io")
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "syscw: "); ok {
				n, _ := strconv.ParseInt(v, 10, 64)
				return n
			}
		}
		t.Fatal("no syscw in /proc/self/io")
		return 0
	}
	const hits = 200
	before := syscw()
	for range hits {
		hit()
	}
	if per := float64(syscw()-before) / hits; per > 2.05 {
		t.Errorf("%.2f write calls per hit, want 2: the request and one response writev", per)
	}
}

// BenchmarkConnHit serves hits of a 10 KB document over loopback, one
// connection, through the loop and through net/http.
func BenchmarkConnHit(b *testing.B) {
	store := NewStore(1<<20, nil)
	const url = "http://origin.example/doc.html"
	store.Put(url, &Object{Body: pattern(10 << 10), ContentType: "text/html", StoredAt: time.Now().Add(time.Hour)})
	srv := New(store)
	req := []byte("GET " + url + " HTTP/1.1\r\nHost: origin.example\r\n\r\n")
	for _, s := range []struct {
		name  string
		serve serveFunc
	}{{"owned", newConnTestServer}, {"net-http", newHTTPTestServer}} {
		b.Run(s.name, func(b *testing.B) {
			ts := s.serve(b, srv)
			c, err := net.Dial("tcp", ts.Listener.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			br := bufio.NewReader(c)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.Write(req)
				resp, err := http.ReadResponse(br, nil)
				if err != nil {
					b.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		})
	}
}
