package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"learnedftl"
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

// TestTinyScaleRunsTheGoldensBudget: `ftlbench -scale tiny`, serial and
// -parallel, runs TinyConfig under TinyBudget, the configuration
// testdata/experiments.golden pins at every worker count, so each table it
// prints is its golden section. A flag overrides its budget field only
// when the command line sets it, and an explicit 0 is a 0.
func TestTinyScaleRunsTheGoldensBudget(t *testing.T) {
	for _, c := range []struct {
		args []string
		edit func(*learnedftl.Budget)
	}{
		{nil, func(*learnedftl.Budget) {}},
		{[]string{"-parallel"}, func(b *learnedftl.Budget) { b.Workers = learnedftl.AutoWorkers() }},
		{[]string{"-crash-fuzz", "0", "-scale-max-gib", "0", "-rate", "5000", "-arrival", "fixed"}, func(b *learnedftl.Budget) {
			b.CrashFuzz, b.ScaleMaxGiB, b.OfferedIOPS, b.Arrival = 0, 0, 5000, "fixed"
		}},
	} {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			t.Chdir(t.TempDir())
			if code := run(append([]string{"-exp", "fig15", "-scale", "tiny", "-json"}, c.args...)); code != 0 {
				t.Fatalf("exit %d", code)
			}
			names, err := filepath.Glob("BENCH_*.json")
			if err != nil || len(names) != 1 {
				t.Fatalf("BENCH files %v, %v", names, err)
			}
			data, err := os.ReadFile(names[0])
			if err != nil {
				t.Fatal(err)
			}
			var doc benchFile
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatal(err)
			}
			want := learnedftl.TinyBudget()
			c.edit(&want)
			if !reflect.DeepEqual(doc.Budget, want) {
				t.Errorf("budget %+v, want %+v", doc.Budget, want)
			}
			if dev := learnedftl.TinyConfig().Geometry.String(); doc.Device != dev {
				t.Errorf("device %s, want %s", doc.Device, dev)
			}
		})
	}
}
