package policy

import (
	"fmt"
	"math"
	"math/bits"

	"webcache/internal/trace"
)

// Key is one sorting key from Table 1 of the paper, plus RANDOM and the
// two future-work keys from §5 (document type and refetch latency).
type Key uint8

// Sorting keys. The removal order of each key is built in (Table 1):
// SIZE and Log2Size remove the largest first; ETIME, ATIME, DAY(ATIME)
// and NREF remove the smallest first.
const (
	KeySize     Key = iota // largest file removed first
	KeyLog2Size            // one of the largest files removed first
	KeyETime               // oldest cache entry removed first (FIFO)
	KeyATime               // least recently used removed first (LRU)
	KeyDayATime            // last accessed the most days ago removed first
	KeyNRef                // least referenced removed first (LFU)
	KeyRandom              // uniformly random
	// Extension keys (paper §5, open problem 1).
	KeyType    // least latency-critical document type removed first
	KeyLatency // cheapest document to refetch removed first
)

// TableOneKeys are the six keys of Table 1, in the paper's order.
var TableOneKeys = []Key{KeySize, KeyLog2Size, KeyETime, KeyATime, KeyDayATime, KeyNRef}

// String returns the paper's notation for the key.
func (k Key) String() string {
	switch k {
	case KeySize:
		return "SIZE"
	case KeyLog2Size:
		return "LOG2SIZE"
	case KeyETime:
		return "ETIME"
	case KeyATime:
		return "ATIME"
	case KeyDayATime:
		return "DAY(ATIME)"
	case KeyNRef:
		return "NREF"
	case KeyRandom:
		return "RANDOM"
	case KeyType:
		return "TYPE"
	case KeyLatency:
		return "LATENCY"
	default:
		return fmt.Sprintf("Key(%d)", uint8(k))
	}
}

// Definition returns the Table 1 definition of the key.
func (k Key) Definition() string {
	switch k {
	case KeySize:
		return "size of a cached document (in bytes)"
	case KeyLog2Size:
		return "floor of the log (base 2) of SIZE"
	case KeyETime:
		return "time document entered the cache"
	case KeyATime:
		return "time of last document access (recency)"
	case KeyDayATime:
		return "day of last document access"
	case KeyNRef:
		return "number of document references"
	case KeyRandom:
		return "uniformly random tiebreak"
	case KeyType:
		return "latency priority of the document's media type"
	case KeyLatency:
		return "estimated refetch latency of the document"
	default:
		return "unknown"
	}
}

// SortOrder returns the Table 1 removal-order description.
func (k Key) SortOrder() string {
	switch k {
	case KeySize:
		return "largest file removed first"
	case KeyLog2Size:
		return "one of the largest files removed first"
	case KeyETime:
		return "oldest access removed first (FIFO)"
	case KeyATime:
		return "least recently used files removed first (LRU)"
	case KeyDayATime:
		return "files last accessed the most days ago removed first"
	case KeyNRef:
		return "least referenced files removed first (LFU)"
	case KeyRandom:
		return "random file removed first"
	case KeyType:
		return "lowest-priority media type removed first"
	case KeyLatency:
		return "cheapest-to-refetch file removed first"
	default:
		return "unknown"
	}
}

// log2Floor returns ⌊log2(size)⌋, with sizes below one byte mapped to 0.
func log2Floor(size int64) int {
	if size < 1 {
		return 0
	}
	return bits.Len64(uint64(size)) - 1
}

// typeRemovalRank returns the removal rank of a document type under
// KeyType: large media (video, audio) are sacrificed before graphics,
// and text is retained longest so text latency stays low (§5, open
// problem 1).
func typeRemovalRank(t trace.DocType) uint8 {
	switch t {
	case trace.Video:
		return 0
	case trace.Audio:
		return 1
	case trace.Unknown:
		return 2
	case trace.CGI:
		return 3
	case trace.Graphics:
		return 4
	default: // trace.Text
		return 5
	}
}

// dayOf returns the day index of t counted from dayStart, with every
// time before dayStart on day -1.
func dayOf(t, dayStart int64) int64 {
	d := t - dayStart
	if d < 0 {
		return -1
	}
	return d / 86400
}

// maxKeys is the number of sorting keys a removal key holds: the
// paper's primary, secondary and tertiary key.
const maxKeys = 3

// packedKeys returns the keys a removal key stores for the sequence:
// a trailing RANDOM is dropped, since the universal tiebreak compares
// Rand next anyway. It fails when more than maxKeys keys remain.
func packedKeys(keys []Key) ([]Key, error) {
	if n := len(keys); n > 0 && keys[n-1] == KeyRandom {
		keys = keys[:n-1]
	}
	if len(keys) > maxKeys {
		return nil, fmt.Errorf("policy: %d sorting keys, at most %d fit a removal key", len(keys), maxKeys)
	}
	return keys, nil
}

// packKey writes e's removal key for keys (at most maxKeys, as
// packedKeys returns them): one word per key, encoded so that a
// smaller word means "remove sooner", and zero in the unused words.
// dayStart anchors DAY(ATIME).
func packKey(e *Entry, keys []Key, dayStart int64) {
	e.key = [maxKeys]uint64{}
	for i, k := range keys {
		e.key[i] = keyWord(k, e, dayStart)
	}
}

// keyWord encodes e's value under k so that unsigned order on words is
// the key's removal order (Table 1): SIZE and LOG2SIZE are complemented
// (largest first), the times and NREF are sign-biased (smallest first),
// TYPE is its removal rank, LATENCY is floatWord's order, RANDOM is
// Rand.
func keyWord(k Key, e *Entry, dayStart int64) uint64 {
	switch k {
	case KeySize:
		return ^biased(e.Size)
	case KeyLog2Size:
		return ^uint64(log2Floor(e.Size))
	case KeyETime:
		return biased(e.ETime)
	case KeyATime:
		return biased(e.ATime)
	case KeyDayATime:
		return biased(dayOf(e.ATime, dayStart))
	case KeyNRef:
		return biased(e.NRef)
	case KeyRandom:
		return e.Rand
	case KeyType:
		return uint64(typeRemovalRank(e.Type))
	case KeyLatency:
		return floatWord(e.Latency)
	}
	return 0
}

// biased maps int64 order onto uint64 order.
func biased(v int64) uint64 { return uint64(v) ^ 1<<63 }

// floatWord maps float64 order onto uint64 order. −0 maps to +0, so
// the word order is < on every non-NaN value; every NaN maps to one
// word above +Inf, so a NaN is removed last.
func floatWord(f float64) uint64 {
	switch {
	case f != f:
		return math.MaxUint64
	case f == 0:
		return 1 << 63
	}
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// wordFloat inverts floatWord (a NaN word decodes to a NaN).
func wordFloat(w uint64) float64 {
	if w>>63 != 0 {
		return math.Float64frombits(w &^ (1 << 63))
	}
	return math.Float64frombits(^w)
}

// lessKey is the one removal-order comparator: it reports whether a is
// removed before b, comparing the removal keys word by word, then the
// universal RANDOM tiebreak, then the URL, which makes the order total.
func lessKey(a, b *Entry) bool {
	if a.key[0] != b.key[0] {
		return a.key[0] < b.key[0]
	}
	if a.key[1] != b.key[1] {
		return a.key[1] < b.key[1]
	}
	if a.key[2] != b.key[2] {
		return a.key[2] < b.key[2]
	}
	if a.Rand != b.Rand {
		return a.Rand < b.Rand
	}
	return a.URL < b.URL
}
