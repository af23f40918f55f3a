package obs

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Progress is a live replays-completed / ETA surface: experiment entry
// points grow the total, every emitted replay snapshot marks one done,
// and a background ticker renders a line (websim writes it to stderr so
// the experiment tables on stdout stay byte-identical).
type Progress struct {
	label    string
	interval time.Duration
	total    atomic.Int64
	done     atomic.Int64
	start    time.Time

	mu      sync.Mutex
	w       io.Writer
	stop    chan struct{}
	started bool
	stopped bool
}

// NewProgress returns a progress surface writing to w, which must not
// be nil, every interval (0 = a 1-second default). Call Start to launch
// the ticker; AddTotal and Done are usable (and concurrency-safe)
// either way.
func NewProgress(w io.Writer, label string, interval time.Duration) *Progress {
	if interval <= 0 {
		interval = time.Second
	}
	return &Progress{
		label:    label,
		interval: interval,
		start:    time.Now(),
		w:        w,
		stop:     make(chan struct{}),
	}
}

// AddTotal grows the expected replay count by n.
func (p *Progress) AddTotal(n int) { p.total.Add(int64(n)) }

// Done marks n replays completed.
func (p *Progress) Done(n int) { p.done.Add(int64(n)) }

// Line renders the current progress line: completed/total, percentage,
// elapsed wall time, and a throughput-based ETA once anything finished.
func (p *Progress) Line() string {
	done, total := p.done.Load(), p.total.Load()
	elapsed := time.Since(p.start).Round(100 * time.Millisecond)
	if total <= 0 {
		return fmt.Sprintf("%s: %d replays done, elapsed %s", p.label, done, elapsed)
	}
	pct := 100 * float64(done) / float64(total)
	eta := "?"
	if done > 0 && done < total {
		rem := time.Duration(float64(time.Since(p.start)) / float64(done) * float64(total-done))
		eta = rem.Round(100 * time.Millisecond).String()
	} else if done >= total {
		eta = "0s"
	}
	return fmt.Sprintf("%s: %d/%d replays (%.0f%%), elapsed %s, eta %s",
		p.label, done, total, pct, elapsed, eta)
}

// Start launches the ticker goroutine; it renders a line per interval
// until Stop. Starting an already-started or already-stopped progress
// is a no-op — without the started guard a double Start would leak a
// second ticker goroutine that Stop's single channel close does halt,
// but that duplicates every rendered line until then.
func (p *Progress) Start() {
	p.mu.Lock()
	if p.stopped || p.started {
		p.mu.Unlock()
		return
	}
	p.started = true
	stop := p.stop
	p.mu.Unlock()
	go func() {
		t := time.NewTicker(p.interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				p.render()
			}
		}
	}()
}

// Stop halts the ticker and renders one final line.
func (p *Progress) Stop() {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return
	}
	p.stopped = true
	close(p.stop)
	p.mu.Unlock()
	p.render()
}

// render writes the current line under the writer lock.
func (p *Progress) render() {
	p.mu.Lock()
	defer p.mu.Unlock()
	fmt.Fprintln(p.w, p.Line())
}
