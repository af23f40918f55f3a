package main

import (
	"math"
	"testing"
)

// TestMemoryLimit pins the rule in bytes: capacity plus an eighth plus
// 32 MiB, at a small cache, at the proxy-hit benchmark's capacity (trace
// C at scale 0.3, all of MaxNeeded) and at a large one.
func TestMemoryLimit(t *testing.T) {
	for _, tc := range []struct {
		name           string
		capacity, want int64
	}{
		{"1 MiB", 1 << 20, 1_048_576 + 131_072 + 33_554_432},
		{"proxy-hit", 69_134_134, 69_134_134 + 8_641_766 + 33_554_432},
		{"8 GiB", 8 << 30, 8_589_934_592 + 1_073_741_824 + 33_554_432},
	} {
		if got := memoryLimit(tc.capacity); got != tc.want {
			t.Errorf("%s: memoryLimit(%d) = %d, want %d", tc.name, tc.capacity, got, tc.want)
		}
	}
}

// TestApplyMemoryLimit checks both branches against a fake setter, so
// the test process's own limit never changes: without GOMEMLIMIT the
// derived limit is set; with it nothing is set and the operator's limit
// is reported.
func TestApplyMemoryLimit(t *testing.T) {
	const capacity = 64 << 20
	for _, tc := range []struct {
		name        string
		env         string
		current     int64 // what the runtime's limit reads as before the call
		wantLimit   int64
		wantDerived bool
	}{
		{"unset", "", math.MaxInt64, memoryLimit(capacity), true},
		{"operator's limit", "200MiB", 200 << 20, 200 << 20, false},
		{"operator's off", "off", math.MaxInt64, math.MaxInt64, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			limit := tc.current
			var sets []int64
			set := func(v int64) int64 {
				prev := limit
				if v >= 0 {
					sets = append(sets, v)
					limit = v
				}
				return prev
			}
			getenv := func(key string) string {
				if key == "GOMEMLIMIT" {
					return tc.env
				}
				return ""
			}
			got, derived := applyMemoryLimit(capacity, getenv, set)
			if got != tc.wantLimit || derived != tc.wantDerived {
				t.Errorf("applyMemoryLimit = %d, %v; want %d, %v", got, derived, tc.wantLimit, tc.wantDerived)
			}
			if tc.wantDerived {
				if len(sets) != 1 || sets[0] != tc.wantLimit {
					t.Errorf("set the limit to %v, want [%d]", sets, tc.wantLimit)
				}
			} else if len(sets) != 0 {
				t.Errorf("changed the operator's GOMEMLIMIT: set %v", sets)
			}
		})
	}
}
