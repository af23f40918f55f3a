package policy

import (
	"fmt"
	"math/rand"
	"testing"

	"webcache/internal/trace"
)

// onHeap moves a freshly built, empty policy onto the heap backend:
// the oracle every structural backend must match.
func onHeap(p *Sorted) *Sorted {
	p.ord = heapOrder{&entryHeap{}}
	return p
}

// TestStructuralBackendSelection pins which backend every taxonomy
// combo (and classic) is routed to: the proven set must actually leave
// the heap, and everything else must stay on it.
func TestStructuralBackendSelection(t *testing.T) {
	wantFor := func(c Combo) string {
		switch c.Primary {
		case KeySize, KeyLog2Size:
			return "size"
		case KeyETime, KeyATime:
			return "list"
		case KeyDayATime:
			if c.Secondary == KeyATime {
				return "list"
			}
			return "heap"
		}
		return "heap"
	}
	for _, c := range AllCombos() {
		p := c.New(0)
		if got, want := p.Backend(), wantFor(c); got != want {
			t.Errorf("%s: backend %q, want %q", c, got, want)
		}
	}
	classics := []struct {
		p    *Sorted
		want string
	}{
		{NewFIFO(), "list"},
		{NewLRU(), "list"},
		{NewLFU(), "heap"},
		{NewHyperG(), "heap"},
	}
	for _, c := range classics {
		if got := c.p.Backend(); got != c.want {
			t.Errorf("%s: backend %q, want %q", c.p.Name(), got, c.want)
		}
	}
	// Extension keys and mid-sequence RANDOM have no structural proof.
	for _, keys := range [][]Key{
		{KeyType, KeyATime},
		{KeyLatency},
		{KeyRandom, KeySize},
		{KeyATime, KeyRandom, KeySize},
	} {
		if got := NewSorted(keys, 0).Backend(); got != "heap" {
			t.Errorf("keys %v: backend %q, want heap", keys, got)
		}
	}
	// A trailing RANDOM is redundant with the universal tiebreak and
	// must not cost the fast path.
	if got := NewSorted([]Key{KeyATime, KeyRandom}, 0).Backend(); got != "list" {
		t.Errorf("ATIME/RANDOM: backend %q, want list", got)
	}
}

// structuralHarness drives one policy pair — structural backend vs heap
// oracle — through an identical randomized Add/Touch/Remove/Victim
// script and requires victim agreement at every probe and in the final
// full drain. Entries are paired, not shared: the backends use the
// intrusive Entry fields, so each side owns its own copies with
// identical sort keys.
type structuralHarness struct {
	t          *testing.T
	name       string
	fast, orcl *Sorted
	fastE      []*Entry
	orclE      []*Entry
	now        int64
	nextURL    int
}

func newStructuralHarness(t *testing.T, name string, build func() *Sorted) *structuralHarness {
	return &structuralHarness{
		t:    t,
		name: name,
		fast: build(),
		orcl: onHeap(build()),
		now:  100,
	}
}

// sizes mixes tiny, shared, and huge values so entries collide in
// log2-size buckets and tie on the SIZE key itself.
var harnessSizes = []int64{0, 1, 3, 512, 513, 4096, 4096, 100_000, 1 << 21}

func (h *structuralHarness) step(rng *rand.Rand) {
	switch op := rng.Intn(10); {
	case op < 4 || len(h.fastE) == 0: // add
		url := fmt.Sprintf("http://h/%d", h.nextURL)
		h.nextURL++
		size := harnessSizes[rng.Intn(len(harnessSizes))]
		// A coarse Rand domain forces tiebreak collisions down to the
		// URL comparison.
		rv := rng.Uint64() >> 60
		fe := NewEntry(url, size, trace.Graphics, h.now, rv)
		oe := NewEntry(url, size, trace.Graphics, h.now, rv)
		h.fast.Add(fe)
		h.orcl.Add(oe)
		h.fastE = append(h.fastE, fe)
		h.orclE = append(h.orclE, oe)
	case op < 8: // touch
		i := rng.Intn(len(h.fastE))
		h.now = h.advance(rng)
		fe, oe := h.fastE[i], h.orclE[i]
		fe.ATime, oe.ATime = h.now, h.now
		fe.NRef++
		oe.NRef++
		h.fast.Touch(fe)
		h.orcl.Touch(oe)
	case op < 9: // remove a random entry
		i := rng.Intn(len(h.fastE))
		h.fast.Remove(h.fastE[i])
		h.orcl.Remove(h.orclE[i])
		h.fastE[i] = h.fastE[len(h.fastE)-1]
		h.orclE[i] = h.orclE[len(h.orclE)-1]
		h.fastE = h.fastE[:len(h.fastE)-1]
		h.orclE = h.orclE[:len(h.orclE)-1]
	default: // probe the victim
		h.compareVictims("probe")
	}
}

func (h *structuralHarness) advance(rng *rand.Rand) int64 {
	switch rng.Intn(12) {
	case 0:
		return h.now + 30000 // cross a DAY(ATIME) boundary now and then
	case 1:
		return h.now - 3 // clock regression: order must survive, just slower
	case 2, 3, 4, 5:
		return h.now // same-second run
	default:
		return h.now + int64(rng.Intn(3))
	}
}

func (h *structuralHarness) compareVictims(stage string) {
	fv, ov := h.fast.Victim(0), h.orcl.Victim(0)
	switch {
	case (fv == nil) != (ov == nil):
		h.t.Fatalf("%s [%s]: victim nil mismatch: fast=%v oracle=%v", h.name, stage, fv, ov)
	case fv != nil && (fv.URL != ov.URL || fv.NRef != ov.NRef || fv.ATime != ov.ATime):
		h.t.Fatalf("%s [%s]: victim mismatch: fast=%s(nref=%d atime=%d) oracle=%s(nref=%d atime=%d)",
			h.name, stage, fv.URL, fv.NRef, fv.ATime, ov.URL, ov.NRef, ov.ATime)
	}
	if h.fast.Len() != h.orcl.Len() {
		h.t.Fatalf("%s [%s]: len mismatch: fast=%d oracle=%d", h.name, stage, h.fast.Len(), h.orcl.Len())
	}
}

// drain pops both sides to empty, requiring the full victim sequence to
// agree — this is the total-order equality check.
func (h *structuralHarness) drain() {
	for h.orcl.Len() > 0 {
		h.compareVictims("drain")
		fv, ov := h.fast.Victim(0), h.orcl.Victim(0)
		h.fast.Remove(fv)
		h.orcl.Remove(ov)
	}
	h.compareVictims("drained")
}

func runStructuralScript(t *testing.T, name string, build func() *Sorted, seed int64, steps int) {
	h := newStructuralHarness(t, name, build)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < steps; i++ {
		h.step(rng)
	}
	h.drain()
}

// TestStructuralMatchesHeapDrainOrder is the tentpole's hard
// requirement: for all 36 taxonomy combos plus FIFO/LRU/LFU/Hyper-G,
// the structural backend's victim order must equal the heap oracle's
// under randomized Add/Touch/Remove interleavings, victim for victim,
// through a full drain.
func TestStructuralMatchesHeapDrainOrder(t *testing.T) {
	steps := 1500
	if testing.Short() {
		steps = 400
	}
	for _, c := range AllCombos() {
		c := c
		t.Run(c.String(), func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				runStructuralScript(t, c.String(), func() *Sorted { return c.New(0) }, seed, steps)
			}
		})
	}
	classics := []struct {
		name  string
		build func() *Sorted
	}{
		{"FIFO", func() *Sorted { return NewFIFO() }},
		{"LRU", func() *Sorted { return NewLRU() }},
		{"LFU", func() *Sorted { return NewLFU() }},
		{"Hyper-G", func() *Sorted { return NewHyperG() }},
	}
	for _, c := range classics {
		c := c
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				runStructuralScript(t, c.name, c.build, seed, steps)
			}
		})
	}
}

// FuzzStructuralVsHeap lets the fuzzer hunt for op sequences that split
// the structural backends from the heap oracle across every registered
// combo.
func FuzzStructuralVsHeap(f *testing.F) {
	f.Add(int64(1), uint16(64))
	f.Add(int64(42), uint16(200))
	f.Add(int64(-7), uint16(17))
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		steps := int(n%512) + 8
		for _, c := range AllCombos() {
			runStructuralScript(t, c.String(), func() *Sorted { return c.New(0) }, seed, steps)
		}
		runStructuralScript(t, "Hyper-G", func() *Sorted { return NewHyperG() }, seed, steps)
	})
}
