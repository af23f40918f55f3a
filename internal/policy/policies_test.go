package policy

import (
	"math"
	"slices"
	"testing"

	"webcache/internal/rng"
	"webcache/internal/trace"
)

func TestSortedVictimIgnoresIncoming(t *testing.T) {
	p := NewSorted([]Key{KeySize}, 0)
	p.Add(entry("big", 100, 1, 1, 1, 1))
	p.Add(entry("small", 10, 2, 2, 1, 2))
	for _, incoming := range []int64{1, 50, 1000} {
		if v := p.Victim(incoming); v == nil || v.URL != "big" {
			t.Fatalf("Victim(%d) = %v, want big", incoming, v)
		}
	}
}

func TestSortedTouchReorders(t *testing.T) {
	p := NewSorted([]Key{KeyATime}, 0)
	a := entry("a", 10, 1, 1, 1, 1)
	b := entry("b", 10, 2, 2, 1, 2)
	p.Add(a)
	p.Add(b)
	if v := p.Victim(0); v != a {
		t.Fatalf("initial LRU victim = %v", v.URL)
	}
	a.ATime = 10
	p.Touch(a)
	if v := p.Victim(0); v != b {
		t.Fatalf("after touch, LRU victim = %s, want b", v.URL)
	}
}

func TestClassicNames(t *testing.T) {
	for _, tc := range []struct {
		p    Policy
		want string
	}{
		{NewFIFO(), "FIFO"},
		{NewLRU(), "LRU"},
		{NewLFU(), "LFU"},
		{NewHyperG(), "Hyper-G"},
		{NewLRUMin(), "LRU-MIN"},
		{NewPitkowRecker(0), "Pitkow/Recker"},
		{NewGDS1(), "GD-Size(1)"},
		{NewGDSBytes(), "GD-Size(size)"},
	} {
		if tc.p.Name() != tc.want {
			t.Errorf("Name = %q, want %q", tc.p.Name(), tc.want)
		}
	}
}

// TestFIFOEquivalence: FIFO must order exactly as a Sorted ETIME policy
// (Table 3's first row).
func TestFIFOEquivalence(t *testing.T) {
	fifo := NewFIFO()
	etime := NewSorted([]Key{KeyETime}, 0)
	r := rng.New(5)
	for i := 0; i < 200; i++ {
		ef := entry(string(rune('a'+i%26))+string(rune('0'+i/26)), int64(r.Intn(1000)+1), int64(i), int64(i), 1, uint64(i))
		es := entry(ef.URL, ef.Size, ef.ETime, ef.ATime, ef.NRef, ef.Rand)
		fifo.Add(ef)
		etime.Add(es)
	}
	for fifo.Len() > 0 {
		vf, vs := fifo.Victim(0), etime.Victim(0)
		if vf.URL != vs.URL {
			t.Fatalf("FIFO victim %s != ETIME victim %s", vf.URL, vs.URL)
		}
		fifo.Remove(vf)
		etime.Remove(vs)
	}
}

// lruMinReference is a naive O(n) implementation of the paper's LRU-MIN
// description used to cross-check the bucketed implementation.
type lruMinReference struct {
	entries []*Entry
}

func (r *lruMinReference) victim(incoming int64) *Entry {
	if len(r.entries) == 0 {
		return nil
	}
	if incoming < 1 {
		incoming = 1
	}
	for threshold := incoming; ; threshold /= 2 {
		var best *Entry
		for _, e := range r.entries {
			if e.Size >= threshold {
				if best == nil || olderThan(e, best) {
					best = e
				}
			}
		}
		if best != nil {
			return best
		}
		if threshold <= 1 {
			for _, e := range r.entries {
				if best == nil || olderThan(e, best) {
					best = e
				}
			}
			return best
		}
	}
}

func (r *lruMinReference) remove(target *Entry) {
	for i, e := range r.entries {
		if e == target {
			r.entries = append(r.entries[:i], r.entries[i+1:]...)
			return
		}
	}
}

func TestLRUMinMatchesReference(t *testing.T) {
	p := NewLRUMin()
	ref := &lruMinReference{}
	r := rng.New(77)
	live := map[string]*Entry{}
	urlSeq := 0

	for op := 0; op < 5000; op++ {
		switch r.Intn(5) {
		case 0, 1: // add
			urlSeq++
			e := NewEntry(
				// distinct URLs
				"u"+itoa(urlSeq),
				int64(1+r.Intn(100000)),
				trace.Unknown,
				int64(op),
				uint64(urlSeq)*0x9e3779b97f4a7c15,
			)
			p.Add(e)
			ref.entries = append(ref.entries, e)
			live[e.URL] = e
		case 2: // touch
			for _, e := range live {
				e.ATime = int64(op)
				e.NRef++
				p.Touch(e)
				break
			}
		case 3, 4: // victim for a random incoming size, then remove it
			incoming := int64(1 + r.Intn(200000))
			got := p.Victim(incoming)
			want := ref.victim(incoming)
			if (got == nil) != (want == nil) {
				t.Fatalf("op %d: victim nil mismatch (%v vs %v)", op, got, want)
			}
			if got == nil {
				continue
			}
			if got.URL != want.URL {
				t.Fatalf("op %d: Victim(%d) = %s (size %d, atime %d), reference %s (size %d, atime %d)",
					op, incoming, got.URL, got.Size, got.ATime, want.URL, want.Size, want.ATime)
			}
			p.Remove(got)
			ref.remove(want)
			delete(live, got.URL)
		}
		if p.Len() != len(ref.entries) {
			t.Fatalf("op %d: Len %d != reference %d", op, p.Len(), len(ref.entries))
		}
	}
	p.checkInvariants()
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestLRUMinPrefersLargeEnough(t *testing.T) {
	p := NewLRUMin()
	old := entry("old-small", 100, 1, 1, 1, 1)
	newer := entry("new-big", 5000, 2, 2, 1, 2)
	p.Add(old)
	p.Add(newer)
	// Incoming 4000: only new-big is >= 4000, so LRU-MIN evicts it even
	// though old-small is older.
	if v := p.Victim(4000); v == nil || v.URL != "new-big" {
		t.Fatalf("Victim(4000) = %v, want new-big", v)
	}
	// Incoming 50: both are >= 50, LRU picks the older.
	if v := p.Victim(50); v == nil || v.URL != "old-small" {
		t.Fatalf("Victim(50) = %v, want old-small", v)
	}
}

func TestLRUMinThresholdHalving(t *testing.T) {
	p := NewLRUMin()
	p.Add(entry("a", 30, 1, 1, 1, 1))
	p.Add(entry("b", 60, 2, 2, 1, 2))
	// Incoming 100: nothing >= 100; >= 50 matches b only.
	if v := p.Victim(100); v == nil || v.URL != "b" {
		t.Fatalf("Victim(100) = %v, want b (first halving class)", v)
	}
}

func TestLRUMinEmpty(t *testing.T) {
	p := NewLRUMin()
	if v := p.Victim(100); v != nil {
		t.Fatalf("empty Victim = %v", v)
	}
}

func TestPitkowReckerBranches(t *testing.T) {
	// dayStart 0; "today" is day 5.
	p := NewPitkowRecker(0)
	old := entry("old-day", 500, 1, 86400*2, 1, 1)         // last access day 2
	todayBig := entry("today-big", 9000, 1, 86400*5, 1, 2) // today, big
	todaySmall := entry("today-small", 10, 1, 86400*5+10, 1, 3)
	p.Add(old)
	p.Add(todayBig)
	p.Add(todaySmall)
	p.SetNow(86400*5 + 100)

	// Branch 1: a document from an earlier day exists -> it goes first.
	if v := p.Victim(0); v == nil || v.URL != "old-day" {
		t.Fatalf("victim = %v, want old-day", v)
	}
	p.Remove(old)
	// Branch 2: all documents accessed today -> largest size goes first.
	if v := p.Victim(0); v == nil || v.URL != "today-big" {
		t.Fatalf("victim = %v, want today-big", v)
	}
}

func TestGDS1AgesWithInflation(t *testing.T) {
	g := NewGDS1()
	// Two same-size docs: priorities equal L + 1/size.
	a := entry("a", 100, 1, 1, 1, 1)
	b := entry("b", 100, 2, 2, 1, 2)
	g.Add(a)
	g.Add(b)
	// a is the victim (tie broken by Rand); evicting it inflates L.
	v := g.Victim(0)
	if v != a {
		t.Fatalf("victim = %s, want a", v.URL)
	}
	g.Remove(v)
	// L inflated to a's priority. Untouched b still carries its old
	// priority, so b ages out before anything inserted at the new L...
	big := entry("big", 1_000_000, 3, 3, 1, 3)
	g.Add(big)
	if v := g.Victim(0); v != b {
		t.Fatalf("victim = %s, want the aged-out b", v.URL)
	}
	// ...but touching b refreshes it to L + 1/size, putting the huge
	// fresh document (tiny 1/size bonus) back at the head.
	g.Touch(b)
	if v := g.Victim(0); v != big {
		t.Fatalf("after touch, victim = %s, want big", v.URL)
	}
}

func TestGDS1SizeOrderWithinGeneration(t *testing.T) {
	g := NewGDS1()
	small := entry("small", 10, 1, 1, 1, 1)
	big := entry("big", 10000, 2, 2, 1, 2)
	g.Add(small)
	g.Add(big)
	// H = L + 1/size: the big document has the lower priority.
	if v := g.Victim(0); v != big {
		t.Fatalf("victim = %s, want big", v.URL)
	}
}

func TestGDSLatency(t *testing.T) {
	g := NewGDSLatency()
	if g.Name() != "GD-Latency" {
		t.Fatalf("name %q", g.Name())
	}
	// Equal sizes: the cheap-to-refetch document goes first
	// (H = L + latency/size).
	cheap := entry("cheap", 1000, 1, 1, 1, 1)
	cheap.Latency = 0.1
	costly := entry("costly", 1000, 2, 2, 1, 2)
	costly.Latency = 5.0
	g.Add(cheap)
	g.Add(costly)
	if v := g.Victim(0); v != cheap {
		t.Fatalf("victim %s, want cheap", v.URL)
	}
	if _, err := Parse("GD-Latency", 0); err != nil {
		t.Fatalf("Parse(GD-Latency): %v", err)
	}
}

// TestGDSLatencyNaNAndNegativeZero pins GD-Latency's order on the
// priorities floatWord treats specially. A NaN latency gives a NaN
// priority, which is removed last. A −0 priority packs to the same word
// as +0, so it ties with a zero-latency document and Rand decides.
func TestGDSLatencyNaNAndNegativeZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	if floatWord(negZero) != floatWord(0) {
		t.Fatalf("floatWord(-0) = %#x, floatWord(+0) = %#x", floatWord(negZero), floatWord(0))
	}
	if h := wordFloat(floatWord(math.NaN())); !math.IsNaN(h) {
		t.Fatalf("a NaN priority decodes to %v", h)
	}
	g := NewGDSLatency()
	for _, d := range []struct {
		url     string
		latency float64
		rand    uint64
	}{
		{"nan", math.NaN(), 0},
		{"costly", 5, 1},
		{"zero", 0, 3},
		{"negzero", negZero, 2},
	} {
		e := entry(d.url, 1000, 1, 1, 1, d.rand)
		e.Latency = d.latency
		g.Add(e)
	}
	var got []string
	for g.Len() > 0 {
		v := g.Victim(0)
		got = append(got, v.URL)
		g.Remove(v)
	}
	if want := []string{"negzero", "zero", "costly", "nan"}; !slices.Equal(got, want) {
		t.Fatalf("removal order %v, want %v", got, want)
	}
}

func TestComboWithExplicitSecondary(t *testing.T) {
	c := Combo{Primary: KeySize, Secondary: KeyNRef}
	p := c.New(0)
	if p.Name() != "SIZE/NREF" {
		t.Fatalf("name %q", p.Name())
	}
	// Size tie broken by NREF ascending.
	a := entry("a", 100, 1, 1, 5, 1)
	b := entry("b", 100, 2, 2, 2, 2)
	p.Add(a)
	p.Add(b)
	if v := p.Victim(0); v != b {
		t.Fatalf("victim %s, want the less-referenced b", v.URL)
	}
}

func TestComboRandomSecondaryName(t *testing.T) {
	c := Combo{Primary: KeyATime, Secondary: KeyRandom}
	if c.String() != "ATIME/RANDOM" {
		t.Fatalf("combo string %q", c.String())
	}
	if p := c.New(0); p.Name() != "ATIME" {
		t.Fatalf("policy name %q (random secondary is the implicit tiebreak)", p.Name())
	}
}
