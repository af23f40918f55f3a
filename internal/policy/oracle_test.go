package policy

import "math"

// The test oracle: the taxonomy's removal order computed key by key
// from the entry's fields, with no packing.

// Less builds a removal-order comparator over the given key sequence:
// a loop over the keys with a switch dispatch per key, computing every
// key from the entry's fields on each comparison. The RANDOM key
// followed by URL is always appended as the final tiebreak, making the
// order total and deterministic.
//
// Less is the reference semantics of the taxonomy, written straight
// from Table 1, and the oracle the packed removal key (packKey and
// lessKey) is checked against.
func Less(keys []Key, dayStart int64) func(a, b *Entry) bool {
	ks := make([]Key, len(keys))
	copy(ks, keys)
	return func(a, b *Entry) bool {
		for _, k := range ks {
			if c := compareKey(k, a, b, dayStart); c != 0 {
				return c < 0
			}
		}
		if a.Rand != b.Rand {
			return a.Rand < b.Rand
		}
		return a.URL < b.URL
	}
}

// compareKey orders a before b (negative result) when a should be
// removed sooner under key k. dayStart anchors DAY(ATIME) day boundaries.
func compareKey(k Key, a, b *Entry, dayStart int64) int {
	switch k {
	case KeySize:
		return cmpInt64(b.Size, a.Size) // larger removed first
	case KeyLog2Size:
		return cmpInt(log2Floor(b.Size), log2Floor(a.Size))
	case KeyETime:
		return cmpInt64(a.ETime, b.ETime)
	case KeyATime:
		return cmpInt64(a.ATime, b.ATime)
	case KeyDayATime:
		return cmpInt64(dayOf(a.ATime, dayStart), dayOf(b.ATime, dayStart))
	case KeyNRef:
		return cmpInt64(a.NRef, b.NRef)
	case KeyRandom:
		return cmpUint64(a.Rand, b.Rand)
	case KeyType:
		return cmpInt(int(typeRemovalRank(a.Type)), int(typeRemovalRank(b.Type)))
	case KeyLatency:
		// Every NaN ties with every other NaN and sorts after every
		// number, so a NaN is removed last; −0 ties with +0.
		an, bn := math.IsNaN(a.Latency), math.IsNaN(b.Latency)
		switch {
		case an || bn:
			return cmpBool(an, bn)
		case a.Latency < b.Latency:
			return -1
		case a.Latency > b.Latency:
			return 1
		}
		return 0
	default:
		return 0
	}
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpInt(a, b int) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpUint64(a, b uint64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpBool(a, b bool) int {
	switch {
	case a == b:
		return 0
	case b:
		return -1
	}
	return 1
}
