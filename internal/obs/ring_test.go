package obs

import (
	"slices"
	"sync"
	"testing"
)

func TestRingAddAndSnapshot(t *testing.T) {
	r := NewRing[int](4)
	if got := r.Cap(); got != 4 {
		t.Fatalf("Cap() = %d, want 4", got)
	}
	if got := r.Len(); got != 0 {
		t.Fatalf("Len() on empty ring = %d, want 0", got)
	}
	if snap := r.Snapshot(); snap == nil || len(snap) != 0 {
		t.Fatalf("Snapshot() on empty ring = %#v, want an empty slice", snap)
	}
	for i := 0; i < 3; i++ {
		r.Add(i)
	}
	if got, total := r.Len(), r.Total(); got != 3 || total != 3 {
		t.Fatalf("Len(), Total() = %d, %d, want 3, 3", got, total)
	}
	if snap := r.Snapshot(); !slices.Equal(snap, []int{0, 1, 2}) {
		t.Fatalf("Snapshot() = %v, want [0 1 2] (oldest first)", snap)
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	r := NewRing[int](4)
	for i := 0; i < 10; i++ {
		r.Add(i)
	}
	if got := r.Len(); got != 4 {
		t.Fatalf("Len() after wrap = %d, want 4", got)
	}
	if got := r.Total(); got != 10 {
		t.Fatalf("Total() = %d, want 10", got)
	}
	if snap := r.Snapshot(); !slices.Equal(snap, []int{6, 7, 8, 9}) {
		t.Fatalf("Snapshot() = %v, want [6 7 8 9]", snap)
	}
}

// TestRingAddReturnsDisplaced pins what the tracer's rings rely on to
// recycle traces: Add returns the zero value while the ring fills, and
// from the Cap()+1-th add on exactly the value it overwrote, oldest
// first.
func TestRingAddReturnsDisplaced(t *testing.T) {
	r := NewRing[*int](3)
	vals := make([]int, 8)
	for i := range vals {
		vals[i] = i
		old := r.Add(&vals[i])
		if i < r.Cap() {
			if old != nil {
				t.Fatalf("add %d displaced %d from a ring that was not full", i+1, *old)
			}
			continue
		}
		if want := &vals[i-r.Cap()]; old != want {
			t.Fatalf("add %d displaced %v, want the pointer to %d", i+1, old, *want)
		}
	}
}

func TestRingMinCapacity(t *testing.T) {
	for _, capacity := range []int{0, -5, 1} {
		r := NewRing[string](capacity)
		if r.Cap() != 1 {
			t.Fatalf("NewRing(%d).Cap() = %d, want 1", capacity, r.Cap())
		}
		if old := r.Add("a"); old != "" {
			t.Fatalf("first Add displaced %q", old)
		}
		if old := r.Add("b"); old != "a" {
			t.Fatalf("second Add displaced %q, want \"a\"", old)
		}
		if snap := r.Snapshot(); !slices.Equal(snap, []string{"b"}) || r.Len() != 1 || r.Total() != 2 {
			t.Fatalf("Snapshot() = %q, Len() = %d, Total() = %d; want [b], 1, 2", snap, r.Len(), r.Total())
		}
	}
}

// TestRingConcurrentAdd hammers a ring much smaller than the stream
// (run it under -race): the total must be exact despite every writer
// wrapping the buffer many times over, the retained window must hold
// only intact values (a torn slot would surface as a pair that no
// writer produced), and every value added must come back exactly once,
// either displaced by Add or retained in the final snapshot.
func TestRingConcurrentAdd(t *testing.T) {
	const capacity, writers, per = 32, 8, 2000
	type pair struct{ seq, check int64 }
	r := NewRing[pair](capacity)
	displaced := make([][]pair, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				seq := int64(w*per + i)
				if old := r.Add(pair{seq, seq * 3}); old != (pair{}) {
					displaced[w] = append(displaced[w], old)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Total(); got != writers*per {
		t.Fatalf("Total() = %d, want %d", got, writers*per)
	}
	if got := r.Len(); got != capacity {
		t.Fatalf("Len() after heavy wrap = %d, want %d", got, capacity)
	}
	seen := make([]int, writers*per)
	all := r.Snapshot()
	for _, d := range displaced {
		all = append(all, d...)
	}
	for _, p := range all {
		if p.seq < 0 || p.seq >= writers*per || p.check != p.seq*3 {
			t.Fatalf("value %+v: torn or fabricated", p)
		}
		seen[p.seq]++
	}
	for seq, n := range seen {
		// Sequence 0 is the zero pair, which Add's zero displacement
		// hides; every other value comes back exactly once.
		if seq > 0 && n != 1 {
			t.Fatalf("value %d came back %d times, want once", seq, n)
		}
	}
}
