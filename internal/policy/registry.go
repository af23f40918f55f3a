package policy

import (
	"fmt"
	"strings"
)

// Combo is one cell of the paper's experiment design: a primary and a
// secondary sorting key (the tertiary key is always RANDOM).
type Combo struct {
	Primary   Key
	Secondary Key
}

// String returns "PRIMARY/SECONDARY" in the paper's notation.
func (c Combo) String() string {
	return c.Primary.String() + "/" + c.Secondary.String()
}

// New constructs the sorted policy for the combo. dayStart anchors
// DAY(ATIME).
func (c Combo) New(dayStart int64) *Sorted {
	if c.Secondary == KeyRandom {
		// RANDOM is the universal tiebreak appended by NewSorted.
		return NewSorted([]Key{c.Primary}, dayStart)
	}
	return NewSorted([]Key{c.Primary, c.Secondary}, dayStart)
}

// AllCombos returns the paper's 36 primary/secondary combinations: each
// Table 1 key as primary, crossed with the five other Table 1 keys plus
// RANDOM as secondary (§1.2: "This gives 36 combinations of primary and
// secondary keys, and thus 36 policies").
func AllCombos() []Combo {
	var combos []Combo
	for _, p := range TableOneKeys {
		for _, s := range TableOneKeys {
			if s == p {
				continue
			}
			combos = append(combos, Combo{Primary: p, Secondary: s})
		}
		combos = append(combos, Combo{Primary: p, Secondary: KeyRandom})
	}
	return combos
}

// PrimaryCombos returns each Table 1 key with a random secondary — the
// policies plotted in Figures 8–12.
func PrimaryCombos() []Combo {
	combos := make([]Combo, 0, len(TableOneKeys))
	for _, p := range TableOneKeys {
		combos = append(combos, Combo{Primary: p, Secondary: KeyRandom})
	}
	return combos
}

// SecondaryCombos returns ⌊log2 SIZE⌋ crossed with every other Table 1
// key plus RANDOM as secondary — the policies of Figure 15.
func SecondaryCombos() []Combo {
	var combos []Combo
	for _, s := range TableOneKeys {
		if s == KeyLog2Size {
			continue
		}
		combos = append(combos, Combo{Primary: KeyLog2Size, Secondary: s})
	}
	combos = append(combos, Combo{Primary: KeyLog2Size, Secondary: KeyRandom})
	return combos
}

// ParseKey resolves the paper's notation (case-insensitive) to a Key.
func ParseKey(s string) (Key, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "SIZE":
		return KeySize, nil
	case "LOG2SIZE", "LOG2(SIZE)", "FLOORLOG2SIZE":
		return KeyLog2Size, nil
	case "ETIME":
		return KeyETime, nil
	case "ATIME":
		return KeyATime, nil
	case "DAY(ATIME)", "DAYATIME":
		return KeyDayATime, nil
	case "NREF", "NREFS":
		return KeyNRef, nil
	case "RANDOM", "RAND":
		return KeyRandom, nil
	case "TYPE":
		return KeyType, nil
	case "LATENCY":
		return KeyLatency, nil
	}
	return 0, fmt.Errorf("policy: unknown key %q", s)
}

// Parse builds a policy from a specification string: either a literature
// policy name (FIFO, LRU, LFU, LRU-MIN, HYPER-G, PITKOW/RECKER,
// GD-SIZE(1), GD-SIZE(SIZE)) or a slash-separated key list such as
// "SIZE/NREF" of at most three keys, not counting a trailing RANDOM.
// dayStart anchors day-based keys.
func Parse(spec string, dayStart int64) (Policy, error) {
	switch strings.ToUpper(strings.TrimSpace(spec)) {
	case "FIFO":
		return NewFIFO(), nil
	case "LRU":
		return NewLRU(), nil
	case "LFU":
		return NewLFU(), nil
	case "LRU-MIN", "LRUMIN":
		return NewLRUMin(), nil
	case "HYPER-G", "HYPERG":
		return NewHyperG(), nil
	case "PITKOW/RECKER", "PITKOW-RECKER", "PR":
		return NewPitkowRecker(dayStart), nil
	case "GD-SIZE(1)", "GDS1", "GDS":
		return NewGDS1(), nil
	case "GD-SIZE(SIZE)", "GDSBYTES":
		return NewGDSBytes(), nil
	case "GD-LATENCY", "GDLATENCY":
		return NewGDSLatency(), nil
	}
	parts := strings.Split(spec, "/")
	keys := make([]Key, 0, len(parts))
	for _, part := range parts {
		k, err := ParseKey(part)
		if err != nil {
			return nil, fmt.Errorf("policy: bad spec %q: %w", spec, err)
		}
		keys = append(keys, k)
	}
	if len(keys) == 0 {
		return nil, fmt.Errorf("policy: empty spec")
	}
	if _, err := packedKeys(keys); err != nil {
		return nil, fmt.Errorf("policy: bad spec %q: %w", spec, err)
	}
	return NewSorted(keys, dayStart), nil
}
