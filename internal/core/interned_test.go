package core

import (
	"fmt"
	"hash/crc32"
	"reflect"
	"testing"

	"webcache/internal/policy"
	"webcache/internal/rng"
	"webcache/internal/trace"
)

// internedTestTrace synthesizes a reuse-heavy trace with size changes
// and CGI documents, validated-shaped (status 200, positive sizes).
func internedTestTrace(n int) *trace.Trace {
	r := rng.New(99)
	start := int64(800000000 - 800000000%86400)
	tr := &trace.Trace{Name: "synthetic", Start: start}
	sizes := make(map[int]int64)
	for i := 0; i < n; i++ {
		doc := int(r.Uint64() % 64)
		url := fmt.Sprintf("http://s%d.x/doc%d.html", doc%5, doc)
		if doc%7 == 0 {
			url = fmt.Sprintf("http://s1.x/cgi-bin/q%d", doc)
		}
		size, ok := sizes[doc]
		if !ok || r.Float64() < 0.05 { // occasional origin-side edit
			size = int64(64 + r.Uint64()%4096)
			sizes[doc] = size
		}
		tr.Requests = append(tr.Requests, trace.Request{
			Time:   start + int64(i)*800,
			Client: fmt.Sprintf("c%d", i%9),
			URL:    url,
			Status: 200,
			Size:   size,
			Type:   trace.ClassifyURL(url),
		})
	}
	return tr
}

// runBoth replays tr through a string-indexed and an ID-indexed cache
// built from identical configs and returns the per-request hit
// sequences and final stats of each.
func runBoth(t *testing.T, tr *trace.Trace, mkCfg func() Config) (hitsStr, hitsID []bool, statsStr, statsID Stats) {
	t.Helper()
	str := New(mkCfg())
	for i := range tr.Requests {
		hitsStr = append(hitsStr, str.Access(&tr.Requests[i]))
	}
	str.CheckInvariants()

	col := tr.Columnar()
	idc := NewColumnar(mkCfg(), col)
	for i := 0; i < col.Len(); i++ {
		hitsID = append(hitsID, idc.AccessIndex(i))
	}
	idc.CheckInvariants()
	return hitsStr, hitsID, str.Stats(), idc.Stats()
}

// TestInternedMatchesStringEngine checks the two index modes are
// behaviorally identical — per-request hit decisions and every
// statistic — across capacities and options.
func TestInternedMatchesStringEngine(t *testing.T) {
	tr := internedTestTrace(4000)
	cases := []struct {
		name string
		cfg  func() Config
	}{
		{"infinite", func() Config {
			return Config{Capacity: 0, Seed: 7}
		}},
		{"finite-size-policy", func() Config {
			return Config{
				Capacity: 20000,
				Policy:   policy.NewSorted([]policy.Key{policy.KeySize}, 0),
				Seed:     7,
				SizeHint: 16,
			}
		}},
		{"finite-lru-exclude-dynamic", func() Config {
			return Config{
				Capacity:       20000,
				Policy:         policy.NewLRU(),
				Seed:           7,
				ExcludeDynamic: true,
			}
		}},
		{"latency-hook", func() Config {
			return Config{
				Capacity:  20000,
				Policy:    policy.NewSorted([]policy.Key{policy.KeyLatency}, 0),
				Seed:      7,
				LatencyOf: func(url string, size int64) float64 { return float64(len(url)) + float64(size)/1024 },
			}
		}},
		{"expires-hook", func() Config {
			return Config{
				Capacity: 20000,
				Policy:   policy.NewExpiredFirst(policy.NewSorted([]policy.Key{policy.KeySize}, 0)),
				Seed:     7,
				ExpiresOf: func(url string, size, now int64) int64 {
					return now + int64(crc32.ChecksumIEEE([]byte(url))%8)*2000
				},
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hitsStr, hitsID, statsStr, statsID := runBoth(t, tr, tc.cfg)
			if !reflect.DeepEqual(hitsStr, hitsID) {
				for i := range hitsStr {
					if hitsStr[i] != hitsID[i] {
						t.Fatalf("request %d (%s): string=%v interned=%v",
							i, tr.Requests[i].URL, hitsStr[i], hitsID[i])
					}
				}
			}
			if !reflect.DeepEqual(statsStr, statsID) {
				t.Fatalf("stats diverge:\nstring  %+v\ninterned %+v", statsStr, statsID)
			}
		})
	}
}

// TestInternedAfterRelease checks that caches built after another one
// released its memory behave exactly as before: the ID table comes back
// cleared and the entry slabs' stale fields never show.
func TestInternedAfterRelease(t *testing.T) {
	tr := internedTestTrace(4000)
	col := tr.Columnar()
	for _, mk := range []func() Config{
		func() Config { return Config{Capacity: 0, Seed: 7} },
		func() Config { return Config{Capacity: 20000, Policy: policy.NewLRU(), Seed: 7} },
	} {
		prev := NewColumnar(Config{Capacity: 30000, Policy: policy.NewSorted([]policy.Key{policy.KeySize}, 0), Seed: 5}, col)
		for i := 0; i < col.Len(); i++ {
			prev.AccessIndex(i)
		}
		prev.Release()
		hitsStr, hitsID, statsStr, statsID := runBoth(t, tr, mk)
		if !reflect.DeepEqual(hitsStr, hitsID) || !reflect.DeepEqual(statsStr, statsID) {
			t.Fatalf("after Release, stats diverge:\nstring   %+v\ninterned %+v", statsStr, statsID)
		}
	}
}

// TestInternedSweep checks the Pitkow/Recker periodic sweep behaves
// identically in both modes.
func TestInternedSweep(t *testing.T) {
	tr := internedTestTrace(2000)
	mk := func() Config {
		return Config{
			Capacity: 15000,
			Policy:   policy.NewSorted([]policy.Key{policy.KeyDayATime, policy.KeySize}, tr.Start),
			Seed:     3,
		}
	}
	str := New(mk())
	col := tr.Columnar()
	idc := NewColumnar(mk(), col)
	for i := range tr.Requests {
		str.Access(&tr.Requests[i])
		idc.AccessIndex(i)
		if i%500 == 499 {
			if a, b := str.Sweep(0.5), idc.Sweep(0.5); a != b {
				t.Fatalf("sweep at %d removed %d (string) vs %d (interned)", i, a, b)
			}
		}
	}
	if !reflect.DeepEqual(str.Stats(), idc.Stats()) {
		t.Fatalf("stats diverge after sweeps:\nstring  %+v\ninterned %+v", str.Stats(), idc.Stats())
	}
}

// TestInternedContainsAndLen checks the query helpers in interned mode.
func TestInternedContainsAndLen(t *testing.T) {
	tr := internedTestTrace(500)
	col := tr.Columnar()
	c := NewColumnar(Config{Capacity: 0, Seed: 1}, col)
	for i := 0; i < col.Len(); i++ {
		c.AccessIndex(i)
	}
	last := map[string]int64{}
	for i := range tr.Requests {
		last[tr.Requests[i].URL] = tr.Requests[i].Size
	}
	for url, size := range last {
		if !c.Contains(url, size) {
			t.Fatalf("Contains(%q, %d) = false, want true", url, size)
		}
		if c.Contains(url, size+1) {
			t.Fatalf("Contains(%q, %d) = true for a mismatched size", url, size+1)
		}
	}
	if c.Contains("http://never.seen/x.html", 1) {
		t.Fatal("Contains found a URL outside the trace")
	}
	if c.Len() != len(last) {
		t.Fatalf("Len = %d, want %d", c.Len(), len(last))
	}
}

// TestInternedAccessPanics pins the mixed-mode guard: feeding a raw
// Request to an interned cache is a programming error.
func TestInternedAccessPanics(t *testing.T) {
	tr := internedTestTrace(10)
	c := NewColumnar(Config{Capacity: 0, Seed: 1}, tr.Columnar())
	defer func() {
		if recover() == nil {
			t.Fatal("Access on an interned cache did not panic")
		}
	}()
	c.Access(&tr.Requests[0])
}
