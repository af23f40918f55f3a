// Package policy implements the paper's taxonomy of cache removal
// policies as sorting problems (§1.2, Tables 1–3).
//
// A removal policy sorts the cached documents by one or more keys and
// removes documents from the head of the sorted order until enough free
// space exists for an incoming document. The sorting keys (Table 1) are
// SIZE, ⌊log2 SIZE⌋, ETIME, ATIME, DAY(ATIME) and NREF, with RANDOM
// available as a secondary key and always used as the final tiebreak.
// Classic policies are instances of the taxonomy (Table 3): FIFO ≡ ETIME,
// LRU ≡ ATIME, LFU ≡ NREF, Hyper-G ≡ (NREF, ATIME, SIZE); LRU-MIN and
// Pitkow/Recker need small algorithmic extensions and are implemented
// exactly as the paper describes them.
package policy

import (
	"webcache/internal/trace"
)

// Entry is a cached document copy together with the metadata every
// sorting key needs. Entries are owned by exactly one cache and one
// policy at a time.
type Entry struct {
	URL  string
	Size int64
	Type trace.DocType

	// ID is the interned URL ID when the entry lives in a cache built
	// over a columnar trace view (core's ID-indexed mode); -1 when the
	// cache indexes entries by URL string.
	ID int32

	ETime int64 // time the document entered the cache (Unix seconds)
	ATime int64 // time of last access (Unix seconds)
	NRef  int64 // number of references to the document while cached

	// Rand is a stable per-entry random value assigned at insertion; it
	// implements the RANDOM key and the universal final tiebreak.
	Rand uint64

	// Latency is the estimated time to refetch the document from its
	// origin server, in seconds. It feeds the KeyLatency extension key
	// (§5 open problem 1 of the paper).
	Latency float64

	// Expires is the Unix time after which the cached copy should be
	// considered expired (0 = never). It feeds the ExpiredFirst wrapper
	// (§5 open problem 4: Harvest-style expiry-aware removal).
	Expires int64

	// key is the removal key the owning policy packs from the fields
	// above: one word per sorting key (see packKey), or GD-Size's
	// priority in key[0]. lessKey compares it.
	key [maxKeys]uint64

	heapIdx int

	// prev/next link the entry into a size-class LRU list (LRU-MIN).
	prev, next *Entry
	bucket     int
}

// NewEntry returns an entry for a document inserted at time now.
func NewEntry(url string, size int64, typ trace.DocType, now int64, rand uint64) *Entry {
	e := &Entry{}
	e.init(url, size, typ, now, rand)
	return e
}

// init (re)sets every field to the state NewEntry establishes; it is
// shared with EntryPool.Get so recycled entries are indistinguishable
// from freshly allocated ones. Fields are assigned individually — a
// `*e = Entry{...}` literal copies a full stack temp through duffcopy
// on this hot path (TestEntryPoolRecycles pins the full-reset
// behavior, so a new field must be added here too).
func (e *Entry) init(url string, size int64, typ trace.DocType, now int64, rand uint64) {
	e.URL = url
	e.Size = size
	e.Type = typ
	e.ID = -1
	e.ETime = now
	e.ATime = now
	e.NRef = 1
	e.Rand = rand
	e.Latency = 0
	e.Expires = 0
	e.key = [maxKeys]uint64{}
	e.heapIdx = -1
	e.prev = nil
	e.next = nil
	e.bucket = -1
}

// Policy selects removal victims among cached documents. The cache calls
// Add when a document enters, Touch after updating ATime/NRef on a hit,
// Remove when a document leaves for any reason, and Victim repeatedly
// while it needs more free space.
type Policy interface {
	// Name identifies the policy in reports, e.g. "SIZE/RANDOM" or "LRU-MIN".
	Name() string
	// Add registers a newly cached entry.
	Add(e *Entry)
	// Touch re-sorts e after an access updated its ATime and NRef.
	Touch(e *Entry)
	// Remove unregisters e (eviction, replacement, or invalidation).
	// The cache may recycle e once Remove returns, so implementations
	// must not retain removed entries.
	Remove(e *Entry)
	// Victim returns the next document to remove to make room for an
	// incoming document of the given total size, or nil if no document
	// is available. It must not itself remove the entry.
	Victim(incoming int64) *Entry
	// Len reports how many entries the policy is tracking.
	Len() int
}
