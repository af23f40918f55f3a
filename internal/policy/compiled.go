package policy

// Compiled comparators: unrolled, specialization-per-combination
// removal-order comparators over the Entry's cached derived sort keys.
//
// The generic Less loops over a key slice and switch-dispatches per
// key, recomputing ⌊log2 SIZE⌋ and DAY(ATIME) on every comparison —
// fine for an oracle, wasteful for the heap sifts that dominate a
// replay (every hit re-sifts the touched entry, every eviction sifts
// the root). CompileLess instead returns a dedicated straight-line
// function for each key combination the paper's experiment design can
// construct: the six single-key policies, all 30 two-key combinations
// of Table 1 (the 36-policy design of §1.2 once the RANDOM secondary
// is folded into the universal tiebreak), the Pitkow/Recker pair, the
// Hyper-G triple of Table 3, and the §5 extension keys. Each compares
// precomputed fields directly — Log2Size and DayATime are maintained
// on the entry (see Entry.SyncDerived) rather than derived per call.
//
// Every specialization is semantically identical to Less on entries
// whose derived keys are in sync; TestCompiledMatchesGeneric checks
// the agreement pairwise on randomized, collision-heavy populations.

// CompileLess returns the removal-order comparator for the key
// sequence, specialized when a compiled form exists and falling back
// to the generic Less otherwise. The two are interchangeable except
// for speed; like Less, the returned function orders entries that
// should be removed sooner first, with the universal RANDOM-then-URL
// tiebreak appended.
//
// Comparators that involve KeyDayATime read Entry.DayATime, which the
// day-keyed policies maintain; hand-built entries must call
// SyncDerived with the same dayStart first.
func CompileLess(keys []Key, dayStart int64) func(a, b *Entry) bool {
	if f := compiledFor(keys); f != nil {
		return f
	}
	return Less(keys, dayStart)
}

// compiledFor returns the dedicated comparator for the key sequence,
// or nil when only the generic loop covers it.
func compiledFor(keys []Key) func(a, b *Entry) bool {
	switch len(keys) {
	case 1:
		return compiledOne(keys[0])
	case 2:
		if keys[1] == KeyRandom {
			// RANDOM as an explicit secondary collapses into the
			// universal tiebreak: any later key is masked by the URL
			// tiebreak only when Rand values collide, exactly as the
			// single-key form behaves.
			return compiledOne(keys[0])
		}
		return compiledTwo(keys[0], keys[1])
	case 3:
		if keys[0] == KeyNRef && keys[1] == KeyATime && keys[2] == KeySize {
			return lessHyperG // Table 3: Hyper-G
		}
	}
	return nil
}

func compiledOne(k Key) func(a, b *Entry) bool {
	switch k {
	case KeySize:
		return lessSize
	case KeyLog2Size:
		return lessLog2
	case KeyETime:
		return lessETime
	case KeyATime:
		return lessATime
	case KeyDayATime:
		return lessDay
	case KeyNRef:
		return lessNRef
	case KeyRandom:
		return lessTie
	case KeyType:
		return lessType
	case KeyLatency:
		return lessLatency
	}
	return nil
}

func compiledTwo(p, s Key) func(a, b *Entry) bool {
	switch [2]Key{p, s} {
	case [2]Key{KeySize, KeyLog2Size}:
		return lessSizeLog2
	case [2]Key{KeySize, KeyETime}:
		return lessSizeETime
	case [2]Key{KeySize, KeyATime}:
		return lessSizeATime
	case [2]Key{KeySize, KeyDayATime}:
		return lessSizeDay
	case [2]Key{KeySize, KeyNRef}:
		return lessSizeNRef
	case [2]Key{KeyLog2Size, KeySize}:
		return lessLog2Size
	case [2]Key{KeyLog2Size, KeyETime}:
		return lessLog2ETime
	case [2]Key{KeyLog2Size, KeyATime}:
		return lessLog2ATime
	case [2]Key{KeyLog2Size, KeyDayATime}:
		return lessLog2Day
	case [2]Key{KeyLog2Size, KeyNRef}:
		return lessLog2NRef
	case [2]Key{KeyETime, KeySize}:
		return lessETimeSize
	case [2]Key{KeyETime, KeyLog2Size}:
		return lessETimeLog2
	case [2]Key{KeyETime, KeyATime}:
		return lessETimeATime
	case [2]Key{KeyETime, KeyDayATime}:
		return lessETimeDay
	case [2]Key{KeyETime, KeyNRef}:
		return lessETimeNRef
	case [2]Key{KeyATime, KeySize}:
		return lessATimeSize
	case [2]Key{KeyATime, KeyLog2Size}:
		return lessATimeLog2
	case [2]Key{KeyATime, KeyETime}:
		return lessATimeETime
	case [2]Key{KeyATime, KeyDayATime}:
		return lessATimeDay
	case [2]Key{KeyATime, KeyNRef}:
		return lessATimeNRef
	case [2]Key{KeyDayATime, KeySize}:
		return lessDaySize
	case [2]Key{KeyDayATime, KeyLog2Size}:
		return lessDayLog2
	case [2]Key{KeyDayATime, KeyETime}:
		return lessDayETime
	case [2]Key{KeyDayATime, KeyATime}:
		return lessDayATime
	case [2]Key{KeyDayATime, KeyNRef}:
		return lessDayNRef
	case [2]Key{KeyNRef, KeySize}:
		return lessNRefSize
	case [2]Key{KeyNRef, KeyLog2Size}:
		return lessNRefLog2
	case [2]Key{KeyNRef, KeyETime}:
		return lessNRefETime
	case [2]Key{KeyNRef, KeyATime}:
		return lessNRefATime
	case [2]Key{KeyNRef, KeyDayATime}:
		return lessNRefDay
	}
	return nil
}

// lessTie is the universal final tiebreak: the stable per-entry random
// value, then the URL. It is the whole comparator for a pure-RANDOM
// policy and the tail of every other specialization.
func lessTie(a, b *Entry) bool {
	if a.Rand != b.Rand {
		return a.Rand < b.Rand
	}
	return a.URL < b.URL
}

// Single-key specializations (removal order per Table 1: SIZE and
// LOG2SIZE remove the largest first, the time- and count-valued keys
// remove the smallest first).

func lessSize(a, b *Entry) bool {
	if a.Size != b.Size {
		return a.Size > b.Size
	}
	return lessTie(a, b)
}

func lessLog2(a, b *Entry) bool {
	if a.Log2Size != b.Log2Size {
		return a.Log2Size > b.Log2Size
	}
	return lessTie(a, b)
}

func lessETime(a, b *Entry) bool {
	if a.ETime != b.ETime {
		return a.ETime < b.ETime
	}
	return lessTie(a, b)
}

func lessATime(a, b *Entry) bool {
	if a.ATime != b.ATime {
		return a.ATime < b.ATime
	}
	return lessTie(a, b)
}

func lessDay(a, b *Entry) bool {
	if a.DayATime != b.DayATime {
		return a.DayATime < b.DayATime
	}
	return lessTie(a, b)
}

func lessNRef(a, b *Entry) bool {
	if a.NRef != b.NRef {
		return a.NRef < b.NRef
	}
	return lessTie(a, b)
}

func lessType(a, b *Entry) bool {
	if a.typeRank != b.typeRank {
		return a.typeRank < b.typeRank
	}
	return lessTie(a, b)
}

// lessLatency mirrors the generic three-way float comparison exactly:
// two strict comparisons, so non-ordered values (a defensive NaN) fall
// through to the tiebreak just as compareKey's 0 result does.
func lessLatency(a, b *Entry) bool {
	if a.Latency < b.Latency {
		return true
	}
	if b.Latency < a.Latency {
		return false
	}
	return lessTie(a, b)
}

// Two-key specializations: the 30 ordered Table 1 pairs of the
// 36-policy design (the six RANDOM-secondary cells reduce to the
// single-key forms above).

func lessSizeLog2(a, b *Entry) bool {
	if a.Size != b.Size {
		return a.Size > b.Size
	}
	if a.Log2Size != b.Log2Size {
		return a.Log2Size > b.Log2Size
	}
	return lessTie(a, b)
}

func lessSizeETime(a, b *Entry) bool {
	if a.Size != b.Size {
		return a.Size > b.Size
	}
	if a.ETime != b.ETime {
		return a.ETime < b.ETime
	}
	return lessTie(a, b)
}

func lessSizeATime(a, b *Entry) bool {
	if a.Size != b.Size {
		return a.Size > b.Size
	}
	if a.ATime != b.ATime {
		return a.ATime < b.ATime
	}
	return lessTie(a, b)
}

func lessSizeDay(a, b *Entry) bool {
	if a.Size != b.Size {
		return a.Size > b.Size
	}
	if a.DayATime != b.DayATime {
		return a.DayATime < b.DayATime
	}
	return lessTie(a, b)
}

func lessSizeNRef(a, b *Entry) bool {
	if a.Size != b.Size {
		return a.Size > b.Size
	}
	if a.NRef != b.NRef {
		return a.NRef < b.NRef
	}
	return lessTie(a, b)
}

func lessLog2Size(a, b *Entry) bool {
	if a.Log2Size != b.Log2Size {
		return a.Log2Size > b.Log2Size
	}
	if a.Size != b.Size {
		return a.Size > b.Size
	}
	return lessTie(a, b)
}

func lessLog2ETime(a, b *Entry) bool {
	if a.Log2Size != b.Log2Size {
		return a.Log2Size > b.Log2Size
	}
	if a.ETime != b.ETime {
		return a.ETime < b.ETime
	}
	return lessTie(a, b)
}

func lessLog2ATime(a, b *Entry) bool {
	if a.Log2Size != b.Log2Size {
		return a.Log2Size > b.Log2Size
	}
	if a.ATime != b.ATime {
		return a.ATime < b.ATime
	}
	return lessTie(a, b)
}

func lessLog2Day(a, b *Entry) bool {
	if a.Log2Size != b.Log2Size {
		return a.Log2Size > b.Log2Size
	}
	if a.DayATime != b.DayATime {
		return a.DayATime < b.DayATime
	}
	return lessTie(a, b)
}

func lessLog2NRef(a, b *Entry) bool {
	if a.Log2Size != b.Log2Size {
		return a.Log2Size > b.Log2Size
	}
	if a.NRef != b.NRef {
		return a.NRef < b.NRef
	}
	return lessTie(a, b)
}

func lessETimeSize(a, b *Entry) bool {
	if a.ETime != b.ETime {
		return a.ETime < b.ETime
	}
	if a.Size != b.Size {
		return a.Size > b.Size
	}
	return lessTie(a, b)
}

func lessETimeLog2(a, b *Entry) bool {
	if a.ETime != b.ETime {
		return a.ETime < b.ETime
	}
	if a.Log2Size != b.Log2Size {
		return a.Log2Size > b.Log2Size
	}
	return lessTie(a, b)
}

func lessETimeATime(a, b *Entry) bool {
	if a.ETime != b.ETime {
		return a.ETime < b.ETime
	}
	if a.ATime != b.ATime {
		return a.ATime < b.ATime
	}
	return lessTie(a, b)
}

func lessETimeDay(a, b *Entry) bool {
	if a.ETime != b.ETime {
		return a.ETime < b.ETime
	}
	if a.DayATime != b.DayATime {
		return a.DayATime < b.DayATime
	}
	return lessTie(a, b)
}

func lessETimeNRef(a, b *Entry) bool {
	if a.ETime != b.ETime {
		return a.ETime < b.ETime
	}
	if a.NRef != b.NRef {
		return a.NRef < b.NRef
	}
	return lessTie(a, b)
}

func lessATimeSize(a, b *Entry) bool {
	if a.ATime != b.ATime {
		return a.ATime < b.ATime
	}
	if a.Size != b.Size {
		return a.Size > b.Size
	}
	return lessTie(a, b)
}

func lessATimeLog2(a, b *Entry) bool {
	if a.ATime != b.ATime {
		return a.ATime < b.ATime
	}
	if a.Log2Size != b.Log2Size {
		return a.Log2Size > b.Log2Size
	}
	return lessTie(a, b)
}

func lessATimeETime(a, b *Entry) bool {
	if a.ATime != b.ATime {
		return a.ATime < b.ATime
	}
	if a.ETime != b.ETime {
		return a.ETime < b.ETime
	}
	return lessTie(a, b)
}

func lessATimeDay(a, b *Entry) bool {
	if a.ATime != b.ATime {
		return a.ATime < b.ATime
	}
	if a.DayATime != b.DayATime {
		return a.DayATime < b.DayATime
	}
	return lessTie(a, b)
}

func lessATimeNRef(a, b *Entry) bool {
	if a.ATime != b.ATime {
		return a.ATime < b.ATime
	}
	if a.NRef != b.NRef {
		return a.NRef < b.NRef
	}
	return lessTie(a, b)
}

func lessDaySize(a, b *Entry) bool {
	if a.DayATime != b.DayATime {
		return a.DayATime < b.DayATime
	}
	if a.Size != b.Size {
		return a.Size > b.Size
	}
	return lessTie(a, b)
}

func lessDayLog2(a, b *Entry) bool {
	if a.DayATime != b.DayATime {
		return a.DayATime < b.DayATime
	}
	if a.Log2Size != b.Log2Size {
		return a.Log2Size > b.Log2Size
	}
	return lessTie(a, b)
}

func lessDayETime(a, b *Entry) bool {
	if a.DayATime != b.DayATime {
		return a.DayATime < b.DayATime
	}
	if a.ETime != b.ETime {
		return a.ETime < b.ETime
	}
	return lessTie(a, b)
}

func lessDayATime(a, b *Entry) bool {
	if a.DayATime != b.DayATime {
		return a.DayATime < b.DayATime
	}
	if a.ATime != b.ATime {
		return a.ATime < b.ATime
	}
	return lessTie(a, b)
}

func lessDayNRef(a, b *Entry) bool {
	if a.DayATime != b.DayATime {
		return a.DayATime < b.DayATime
	}
	if a.NRef != b.NRef {
		return a.NRef < b.NRef
	}
	return lessTie(a, b)
}

func lessNRefSize(a, b *Entry) bool {
	if a.NRef != b.NRef {
		return a.NRef < b.NRef
	}
	if a.Size != b.Size {
		return a.Size > b.Size
	}
	return lessTie(a, b)
}

func lessNRefLog2(a, b *Entry) bool {
	if a.NRef != b.NRef {
		return a.NRef < b.NRef
	}
	if a.Log2Size != b.Log2Size {
		return a.Log2Size > b.Log2Size
	}
	return lessTie(a, b)
}

func lessNRefETime(a, b *Entry) bool {
	if a.NRef != b.NRef {
		return a.NRef < b.NRef
	}
	if a.ETime != b.ETime {
		return a.ETime < b.ETime
	}
	return lessTie(a, b)
}

func lessNRefATime(a, b *Entry) bool {
	if a.NRef != b.NRef {
		return a.NRef < b.NRef
	}
	if a.ATime != b.ATime {
		return a.ATime < b.ATime
	}
	return lessTie(a, b)
}

func lessNRefDay(a, b *Entry) bool {
	if a.NRef != b.NRef {
		return a.NRef < b.NRef
	}
	if a.DayATime != b.DayATime {
		return a.DayATime < b.DayATime
	}
	return lessTie(a, b)
}

// lessHyperG is the Table 3 Hyper-G order: least referenced, then
// least recently used, then largest first.
func lessHyperG(a, b *Entry) bool {
	if a.NRef != b.NRef {
		return a.NRef < b.NRef
	}
	if a.ATime != b.ATime {
		return a.ATime < b.ATime
	}
	if a.Size != b.Size {
		return a.Size > b.Size
	}
	return lessTie(a, b)
}
