package policy

import (
	"strings"
	"testing"
)

func TestParseProducesIndependentInstances(t *testing.T) {
	a, err := Parse("SIZE/NREF", 0)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	b, _ := Parse("SIZE/NREF", 0)
	if a == b {
		t.Fatal("Parse returned the same instance twice")
	}
	if a.Name() != "SIZE/NREF" || b.Name() != "SIZE/NREF" {
		t.Fatalf("instance names %q / %q, want SIZE/NREF", a.Name(), b.Name())
	}
	// Instances must not share state: filling one leaves the other empty.
	e := NewEntry("http://a.test/x", 100, 0, 1, 1)
	a.Add(e)
	if a.Len() != 1 || b.Len() != 0 {
		t.Fatalf("Len a=%d b=%d, want 1 and 0", a.Len(), b.Len())
	}
}

func TestParseCanonicalizesSpellings(t *testing.T) {
	for spec, want := range map[string]string{
		"lru":           "LRU",
		"LRU":           "LRU",
		"HYPERG":        "Hyper-G",
		"PITKOW-RECKER": "Pitkow/Recker",
	} {
		p, err := Parse(spec, 0)
		if err != nil {
			t.Errorf("Parse(%q): %v", spec, err)
			continue
		}
		if name := p.Name(); name != want {
			t.Errorf("Parse(%q) name = %q, want %q", spec, name, want)
		}
	}
}

func TestParseRejectsBadSpec(t *testing.T) {
	for _, spec := range []string{"", "NOSUCH", "SIZE/NOSUCH"} {
		if _, err := Parse(spec, 0); err == nil {
			t.Errorf("Parse(%q): want error", spec)
		}
	}
}

// TestParseBoundsKeyCount pins the removal key's width at the input
// edge: a spec may name at most three keys once a trailing RANDOM is
// dropped. Parse reports a longer one as an error naming the spec;
// NewSorted panics on it.
func TestParseBoundsKeyCount(t *testing.T) {
	for _, tc := range []struct {
		spec string
		ok   bool
	}{
		{"SIZE/NREF/ATIME", true},
		{"SIZE/NREF/ATIME/RANDOM", true},
		{"SIZE/NREF/ATIME/ETIME", false},
		{"SIZE/NREF/ATIME/ETIME/RANDOM", false},
	} {
		_, err := Parse(tc.spec, 0)
		if (err == nil) != tc.ok {
			t.Errorf("Parse(%q) error = %v, want ok=%v", tc.spec, err, tc.ok)
			continue
		}
		if err != nil && !strings.Contains(err.Error(), tc.spec) {
			t.Errorf("Parse(%q) error %q does not name the spec", tc.spec, err)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("NewSorted accepted four keys")
		}
	}()
	NewSorted([]Key{KeySize, KeyNRef, KeyATime, KeyETime}, 0)
}
