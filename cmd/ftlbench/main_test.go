package main

import (
	"testing"

	"learnedftl/internal/gc"
)

// TestGCPolicyFlag: -gc-policy names one policy or none — names
// case-sensitive, a typo or a comma list an error before any experiment
// runs.
func TestGCPolicyFlag(t *testing.T) {
	cases := []struct {
		in   string
		want gc.Kind
		ok   bool
	}{
		{"", "", true},
		{"greedy", gc.Greedy, true},
		{"costage", gc.CostAgeTimes, true},
		{"costbenfit", "", false},
		{"COSTAGE", "", false},
		{"greedy,costbenefit", "", false},
	}
	for _, c := range cases {
		got, err := parseGCPolicy(c.in)
		switch {
		case !c.ok && err == nil:
			t.Errorf("%q: accepted as %v, want an error", c.in, got)
		case c.ok && err != nil:
			t.Errorf("%q: %v", c.in, err)
		case c.ok && got != c.want:
			t.Errorf("%q: got %v, want %v", c.in, got, c.want)
		}
	}
}
