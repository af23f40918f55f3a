package proxy

import (
	"testing"
	"time"

	"webcache/internal/policy"
)

// nilVictimPolicy tracks membership but refuses to name eviction
// victims — the degenerate policy that exposes Put's replace-then-fail
// path.
type nilVictimPolicy struct{ n int }

func (p *nilVictimPolicy) Name() string               { return "NIL-VICTIM" }
func (p *nilVictimPolicy) Add(*policy.Entry)          { p.n++ }
func (p *nilVictimPolicy) Touch(*policy.Entry)        {}
func (p *nilVictimPolicy) Remove(*policy.Entry)       { p.n-- }
func (p *nilVictimPolicy) Victim(int64) *policy.Entry { return nil }
func (p *nilVictimPolicy) Len() int                   { return p.n }

// TestPutReplaceFailureKeepsOldObject is the regression test for the
// replace-then-fail object loss: replacing a cached object with a
// bigger version that cannot be admitted (no victim available) must
// leave the old object cached and the counters consistent.
func TestPutReplaceFailureKeepsOldObject(t *testing.T) {
	impls := map[string]func() ObjectStore{
		"single-mutex": func() ObjectStore { return NewStore(100, &nilVictimPolicy{}) },
	}
	for name, mk := range impls {
		t.Run(name, func(t *testing.T) {
			s := mk()
			if !s.Put("http://h/a.html", &Object{Body: make([]byte, 60), StoredAt: time.Now()}) {
				t.Fatal("initial Put(a) rejected")
			}
			if !s.Put("http://h/b.html", &Object{Body: make([]byte, 30), StoredAt: time.Now()}) {
				t.Fatal("Put(b) rejected")
			}
			// Replacing a (60B) with an 80B version needs 110B total with
			// b resident; the policy names no victim, so the Put must fail
			// WITHOUT losing the old a.
			if s.Put("http://h/a.html", &Object{Body: make([]byte, 80), StoredAt: time.Now()}) {
				t.Fatal("oversized replacement admitted")
			}
			if err := checkStoreInvariants(s); err != nil {
				t.Fatalf("after failed replacement: %v", err)
			}
			obj, ok := s.Get("http://h/a.html")
			if !ok {
				t.Fatal("old object lost by failed replacement")
			}
			if len(obj.Body) != 60 {
				t.Fatalf("object body = %d bytes, want the original 60", len(obj.Body))
			}
			st := s.Stats()
			if st.Used != 90 || st.Docs != 2 || st.Evictions != 0 {
				t.Errorf("stats after failed replacement = %+v, want Used 90, Docs 2, Evictions 0", st)
			}
			if s.Len() != 2 {
				t.Errorf("Len = %d, want 2", s.Len())
			}
			// A replacement that fits must still go through atomically.
			if !s.Put("http://h/a.html", &Object{Body: make([]byte, 10), StoredAt: time.Now()}) {
				t.Fatal("fitting replacement rejected")
			}
			if obj, _ := s.Get("http://h/a.html"); len(obj.Body) != 10 {
				t.Errorf("replacement body = %d bytes, want 10", len(obj.Body))
			}
			if st := s.Stats(); st.Used != 40 || st.Docs != 2 {
				t.Errorf("stats after successful replacement = %+v, want Used 40, Docs 2", st)
			}
			if err := checkStoreInvariants(s); err != nil {
				t.Fatalf("after successful replacement: %v", err)
			}
		})
	}
}
