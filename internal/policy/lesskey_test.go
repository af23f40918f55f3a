package policy

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"webcache/internal/trace"
)

// randomEntries returns n entries whose field values are drawn from
// deliberately small domains, so every individual key collides often and
// the comparators are forced through their secondary keys, the RANDOM
// tiebreak, and finally the URL tiebreak. Every 29th entry carries a
// NaN latency to pin the KeyLatency NaN handling.
func randomEntries(r *rand.Rand, n int) []*Entry {
	types := []trace.DocType{trace.Graphics, trace.Text, trace.Audio, trace.Video, trace.CGI, trace.Unknown}
	sizes := []int64{1, 2, 100, 1024, 1500, 2048, 65536}
	entries := make([]*Entry, n)
	for i := range entries {
		e := NewEntry(fmt.Sprintf("http://s/rand%04d", i), sizes[r.Intn(len(sizes))],
			types[r.Intn(len(types))], int64(r.Intn(4))*43200, uint64(r.Intn(6)))
		e.ATime = int64(r.Intn(6)) * 43200
		e.NRef = int64(1 + r.Intn(3))
		e.Latency = float64(r.Intn(4)) * 0.5
		if i%29 == 0 {
			e.Latency = math.NaN()
		}
		entries[i] = e
	}
	return entries
}

// compiledKeySets enumerates every key sequence the simulator can pack:
// the single keys (including the §5 extensions), every ordered Table 1
// pair with and without an explicit RANDOM secondary, the
// experiment-design combos, the Pitkow/Recker pair, the Hyper-G
// triple, an extension pair and another triple.
func compiledKeySets() [][]Key {
	sets := [][]Key{
		{KeySize}, {KeyLog2Size}, {KeyETime}, {KeyATime}, {KeyDayATime},
		{KeyNRef}, {KeyRandom}, {KeyType}, {KeyLatency},
		{KeyDayATime, KeySize},       // Pitkow/Recker
		{KeyNRef, KeyATime, KeySize}, // Hyper-G
		{KeyType, KeyLatency},        // extension pair
		{KeySize, KeyATime, KeyNRef}, // another triple
	}
	for _, p := range TableOneKeys {
		sets = append(sets, []Key{p, KeyRandom})
		for _, s := range TableOneKeys {
			if s != p {
				sets = append(sets, []Key{p, s})
			}
		}
	}
	for _, c := range AllCombos() {
		sets = append(sets, comboKeys(c))
	}
	return sets
}

// TestKeyMatchesLess checks, pairwise over randomized collision-heavy
// populations and several day anchors, that lessKey on keys packed by
// packKey agrees exactly with the oracle Less.
func TestKeyMatchesLess(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	entries := randomEntries(r, 80)
	for _, dayStart := range []int64{0, 500, 86400} {
		for _, keys := range compiledKeySets() {
			name := ""
			for _, k := range keys {
				name += "/" + k.String()
			}
			checkKeyMatchesLess(t, name, keys, dayStart, entries)
		}
	}
}

// checkKeyMatchesLess packs keys into every entry and requires lessKey
// to agree with Less on every ordered pair.
func checkKeyMatchesLess(t *testing.T, name string, keys []Key, dayStart int64, entries []*Entry) {
	t.Helper()
	packed, err := packedKeys(keys)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, e := range entries {
		packKey(e, packed, dayStart)
	}
	less := Less(keys, dayStart)
	for _, a := range entries {
		for _, b := range entries {
			if got, want := lessKey(a, b), less(a, b); got != want {
				t.Fatalf("%s@%d: lessKey(%s, %s) = %v, Less = %v (size %d/%d etime %d/%d atime %d/%d nref %d/%d latency %v/%v)",
					name, dayStart, a.URL, b.URL, got, want, a.Size, b.Size,
					a.ETime, b.ETime, a.ATime, b.ATime, a.NRef, b.NRef, a.Latency, b.Latency)
			}
		}
	}
}

// TestSortedVictimsFollowLess drives every combo, Hyper-G and
// Pitkow/Recker through adds, touches that cross day boundaries, and
// evictions, and requires each victim to be the minimum under the
// oracle Less over the live entries: a key that a touch changes but
// the policy did not repack shows up here.
func TestSortedVictimsFollowLess(t *testing.T) {
	const dayStart = 500
	type policyKeys struct {
		name string
		p    Policy
		keys []Key
	}
	var cases []policyKeys
	for _, c := range AllCombos() {
		cases = append(cases, policyKeys{c.String(), c.New(dayStart), comboKeys(c)})
	}
	cases = append(cases,
		policyKeys{"Hyper-G", NewHyperG(), []Key{KeyNRef, KeyATime, KeySize}},
		policyKeys{"Pitkow/Recker", NewPitkowRecker(dayStart), pitkowKeys})
	for _, tc := range cases {
		less := Less(tc.keys, dayStart)
		r := rand.New(rand.NewSource(3))
		var live []*Entry
		now := int64(1000)
		for step := 0; step < 600; step++ {
			switch op := r.Intn(4); {
			case op == 0 || len(live) == 0:
				e := NewEntry(fmt.Sprintf("http://v/%d", step), int64(1+r.Intn(5000)), trace.Text, now, uint64(r.Intn(4)))
				tc.p.Add(e)
				live = append(live, e)
			case op < 3:
				e := live[r.Intn(len(live))]
				now += int64(r.Intn(40000))
				e.ATime = now
				e.NRef++
				tc.p.Touch(e)
			default:
				v := tc.p.Victim(0)
				for _, e := range live {
					if less(e, v) {
						t.Fatalf("%s step %d: victim %s, but Less removes %s first", tc.name, step, v.URL, e.URL)
					}
				}
				tc.p.Remove(v)
				live = slices.DeleteFunc(live, func(e *Entry) bool { return e == v })
			}
		}
	}
}

// FuzzKeyOrder draws three entries with arbitrary Size, ETime, ATime,
// NRef and Latency — negative values, the int64 extremes, NaN, ±0 and
// ±Inf included — and requires the packed order to agree with the
// oracle Less under every key set and day anchor.
func FuzzKeyOrder(f *testing.F) {
	f.Add(int64(math.MinInt64), int64(math.MaxInt64), int64(-1), int64(0), math.NaN(),
		int64(1), int64(-86400), int64(86401), int64(math.MinInt64), 0.0,
		int64(0), int64(1), int64(math.MaxInt64), int64(-5), math.Copysign(0, -1), uint8(3))
	f.Add(int64(100), int64(5), int64(5), int64(2), 0.5,
		int64(100), int64(5), int64(86400*3), int64(2), math.Inf(1),
		int64(4096), int64(-3), int64(-86400), int64(math.MaxInt64), math.Inf(-1), uint8(0))
	f.Add(int64(-4096), int64(0), int64(0), int64(1), math.NaN(),
		int64(4096), int64(0), int64(0), int64(1), -1.5,
		int64(-4096), int64(0), int64(0), int64(1), math.NaN(), uint8(0xff))
	f.Fuzz(func(t *testing.T,
		s0, et0, at0, nr0 int64, lat0 float64,
		s1, et1, at1, nr1 int64, lat1 float64,
		s2, et2, at2, nr2 int64, lat2 float64, rnd uint8) {
		mk := func(i int, size, etime, atime, nref int64, lat float64) *Entry {
			// Rand comes from a two-value domain so the tiebreak
			// reaches the URL.
			e := NewEntry(fmt.Sprintf("http://f/%d", i), size, trace.DocType(int(rnd>>uint(i))%int(trace.NumDocTypes)), etime, uint64(rnd>>uint(2+i))&1)
			e.ATime, e.NRef, e.Latency = atime, nref, lat
			return e
		}
		entries := []*Entry{
			mk(0, s0, et0, at0, nr0, lat0),
			mk(1, s1, et1, at1, nr1, lat1),
			mk(2, s2, et2, at2, nr2, lat2),
		}
		for _, dayStart := range []int64{0, 500} {
			for _, keys := range compiledKeySets() {
				checkKeyMatchesLess(t, fmt.Sprint(keys), keys, dayStart, entries)
			}
		}
	})
}
