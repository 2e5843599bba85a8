package main

import (
	"reflect"
	"testing"

	"learnedftl"
)

// TestGCPolicyFlag: -gc-policy takes exactly the lists Budget.GCPolicies
// takes — surrounding spaces trimmed, names case-sensitive, a typo or an
// empty element an error before any experiment runs.
func TestGCPolicyFlag(t *testing.T) {
	cases := []struct {
		in   string
		want []learnedftl.GCPolicy // nil: an error
	}{
		{"", learnedftl.GCPolicies()},
		{"greedy", []learnedftl.GCPolicy{learnedftl.GCGreedy}},
		{" greedy , costbenefit ", []learnedftl.GCPolicy{learnedftl.GCGreedy, learnedftl.GCCostBenefit}},
		{"greedy,costbenfit", nil},
		{"greedy,,costage", nil},
		{"costage,", nil},
		{"COSTAGE", nil},
	}
	for _, c := range cases {
		got, err := parseGCPolicies(c.in)
		switch {
		case c.want == nil && err == nil:
			t.Errorf("%q: accepted as %v, want an error", c.in, got)
		case c.want != nil && err != nil:
			t.Errorf("%q: %v", c.in, err)
		case c.want != nil && !reflect.DeepEqual(got, c.want):
			t.Errorf("%q: got %v, want %v", c.in, got, c.want)
		}
	}
}
