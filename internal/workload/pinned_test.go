package workload

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"runtime"
	"sync"
	"testing"

	"webcache/internal/trace"
)

// pinCase names one pinned synthesis: a paper workload at seed 42 and a
// scale.
type pinCase struct {
	name  string
	scale float64
}

func (c pinCase) String() string { return fmt.Sprintf("%s@%g", c.name, c.scale) }

func (c pinCase) config(t testing.TB) Config {
	cfg, err := ByName(c.name, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scale = c.scale
	return cfg
}

// pinnedDigests holds, per case, the FNV-64a digest of the raw trace
// Generate returns (noise lines included) and of the validated trace
// plus its ValidateStats. They were captured on the generator as it
// stood before client names, URLs and day times stopped going through
// fmt and sort.Slice, and before validation could reuse the raw array;
// the synthesized traces are part of every golden, so these must never
// move without a deliberate model change.
var pinnedDigests = map[pinCase][2]uint64{
	{"U", 0.05}:  {0x63d8af966b30c299, 0x8cea91f091c5ffe1},
	{"G", 0.05}:  {0x3f155bd8cfb0517d, 0x8b25ba7fc3c30eec},
	{"C", 0.05}:  {0x4dbcd07ef8cbce60, 0x19d63b51549ec25c},
	{"BR", 0.05}: {0xf6c4267512a70cce, 0xcb7f2dc21ffc8d6c},
	{"BL", 0.05}: {0xb4582d93816a32b9, 0x58f17617a2fc5609},
	{"U", 0.5}:   {0xf7f93c02c053e4eb, 0x2cb5569ab39a32c},
}

// smallPins are the scale-0.05 cases, cheap enough to run under -race.
var smallPins = []pinCase{{"U", 0.05}, {"G", 0.05}, {"C", 0.05}, {"BR", 0.05}, {"BL", 0.05}}

// digester hashes requests field by field; strings are length-prefixed
// so adjacent fields cannot trade bytes.
type digester struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigester() *digester { return &digester{h: fnv.New64a()} }

func (d *digester) int(v int64) {
	binary.LittleEndian.PutUint64(d.buf[:], uint64(v))
	d.h.Write(d.buf[:])
}

func (d *digester) str(s string) {
	d.int(int64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digester) requests(rs []trace.Request) {
	d.int(int64(len(rs)))
	for i := range rs {
		r := &rs[i]
		d.int(r.Time)
		d.str(r.Client)
		d.str(r.URL)
		d.int(int64(r.Status))
		d.int(r.Size)
		d.int(int64(r.Type))
		d.int(r.LastModified)
	}
}

func (d *digester) stats(s *trace.ValidateStats) {
	for _, v := range []int{s.Input, s.Kept, s.DroppedStatus, s.DroppedZeroSize,
		s.InheritedSize, s.SizeChanges, s.ReReferences} {
		d.int(int64(v))
	}
}

// traceDigests returns the raw and the validated digest of cfg.
func traceDigests(cfg Config) ([2]uint64, error) {
	raw, err := Generate(cfg)
	if err != nil {
		return [2]uint64{}, err
	}
	rd := newDigester()
	rd.int(raw.Start)
	rd.requests(raw.Requests)

	valid, stats, err := GenerateValidated(cfg)
	if err != nil {
		return [2]uint64{}, err
	}
	vd := newDigester()
	vd.int(valid.Start)
	vd.requests(valid.Requests)
	vd.stats(stats)
	return [2]uint64{rd.h.Sum64(), vd.h.Sum64()}, nil
}

func checkPinned(t *testing.T, c pinCase, got [2]uint64) {
	t.Helper()
	want := pinnedDigests[c]
	if got[0] != want[0] {
		t.Errorf("workload %v: raw trace digest %#x, pinned %#x", c, got[0], want[0])
	}
	if got[1] != want[1] {
		t.Errorf("workload %v: validated trace digest %#x, pinned %#x", c, got[1], want[1])
	}
}

// TestGeneratedTracesPinned fails, naming the workload, if synthesis or
// validation changes a single field of a single request.
func TestGeneratedTracesPinned(t *testing.T) {
	for _, c := range append(smallPins[:len(smallPins):len(smallPins)], pinCase{"U", 0.5}) {
		got, err := traceDigests(c.config(t))
		if err != nil {
			t.Fatalf("workload %v: %v", c, err)
		}
		checkPinned(t, c, got)
	}
}

// TestGeneratedTracesPinnedOneProc checks every pinned digest with one
// processor, where the time, client and validation goroutines only run
// while the generator waits for them.
func TestGeneratedTracesPinnedOneProc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range append(smallPins[:len(smallPins):len(smallPins)], pinCase{"U", 0.5}) {
		got, err := traceDigests(c.config(t))
		if err != nil {
			t.Fatalf("workload %v: %v", c, err)
		}
		checkPinned(t, c, got)
	}
}

// TestGenerateConcurrent generates the five workloads from five
// goroutines, twice, as the report renderer does: any per-call table
// that leaks into package state shows up as a wrong digest or, under
// -race, as a data race.
func TestGenerateConcurrent(t *testing.T) {
	for round := 0; round < 2; round++ {
		got := make([][2]uint64, len(smallPins))
		errs := make([]error, len(smallPins))
		var wg sync.WaitGroup
		for i, c := range smallPins {
			cfg := c.config(t)
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = traceDigests(cfg)
			}()
		}
		wg.Wait()
		for i, c := range smallPins {
			if errs[i] != nil {
				t.Fatalf("workload %v: %v", c, errs[i])
			}
			checkPinned(t, c, got[i])
		}
	}
}
