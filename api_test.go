package learnedftl

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"slices"
	"strings"
	"testing"

	"learnedftl/internal/core"
	"learnedftl/internal/sim"
	"learnedftl/internal/workload"
)

func TestSchemesConstruct(t *testing.T) {
	cfg := TinyConfig()
	for _, s := range Schemes() {
		f, err := New(s, cfg)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if f.Name() != s.String() {
			t.Errorf("%v: Name() = %q", s, f.Name())
		}
	}
	if _, err := New(Scheme(99), cfg); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	// A geometry past the 2³¹−1-page table width — here one whose page count
	// also overflows int — and a group span past it are errors from every
	// constructor, before anything is sized by them.
	huge := cfg
	huge.Geometry.BlocksPerUnit = 1 << 50
	wide := cfg
	wide.GroupEntries = 1 << 40
	for _, s := range Schemes() {
		if _, err := New(s, huge); err == nil || !strings.Contains(err.Error(), "device limit") {
			t.Errorf("%v: oversized geometry: err = %v", s, err)
		}
		if _, err := New(s, wide); err == nil || !strings.Contains(err.Error(), "device limit") {
			t.Errorf("%v: oversized group span: err = %v", s, err)
		}
	}
}

func TestConfigsAreValid(t *testing.T) {
	for _, cfg := range []Config{TinyConfig(), QuickConfig(), PaperConfig()} {
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		// The group allocator must accept each published config.
		if _, err := core.New(cfg); err != nil {
			t.Fatal(err)
		}
	}
}

func TestEndToEndAllSchemes(t *testing.T) {
	cfg := TinyConfig()
	lp := cfg.LogicalPages()
	for _, s := range Schemes() {
		f, err := New(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sim.Warmed(f, workload.Warmup(lp, 1, 128, 1), 0)
		res := sim.Run(f, workload.FIO(workload.RandRead, lp, 1, 8, 100, 3), 0)
		if res.Requests != 800 {
			t.Fatalf("%v: %d requests", s, res.Requests)
		}
		if f.Collector().MeanReadLatency() <= 0 {
			t.Fatalf("%v: zero read latency", s)
		}
	}
}

func TestFig14Shape(t *testing.T) {
	// The headline result: LearnedFTL's random-read throughput beats the
	// demand-based baselines and approaches the ideal FTL.
	cfg := TinyConfig()
	b := TinyBudget()
	tp, err := newWarmed(SchemeTPFTL, cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	ld, err := newWarmed(SchemeLearnedFTL, cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	id, err := newWarmed(SchemeIdeal, cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	rTP := measureFIO(tp, workload.RandRead, b.Threads, 1, b.Requests)
	rLD := measureFIO(ld, workload.RandRead, b.Threads, 1, b.Requests)
	rID := measureFIO(id, workload.RandRead, b.Threads, 1, b.Requests)
	if rLD.ReadMBps <= rTP.ReadMBps {
		t.Fatalf("LearnedFTL (%.0f MB/s) not faster than TPFTL (%.0f MB/s)", rLD.ReadMBps, rTP.ReadMBps)
	}
	if rLD.ReadMBps < 0.7*rID.ReadMBps {
		t.Fatalf("LearnedFTL (%.0f) below 70%% of ideal (%.0f)", rLD.ReadMBps, rID.ReadMBps)
	}
	if rLD.ModelHitRatio == 0 {
		t.Fatal("LearnedFTL had no model hits")
	}
}

func TestFig6Shape(t *testing.T) {
	// LeaFTL must exhibit double+triple reads under random reads after
	// 4KB random aging; TPFTL must not exhibit triples.
	cfg := TinyConfig()
	b := TinyBudget()
	le, err := newWarmed(SchemeLeaFTL, cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	// Age with small random writes (the case LeaFTL handles poorly).
	lp := cfg.LogicalPages()
	sim.Run(le, workload.FIO(workload.RandWrite, lp, 1, 8, 2000, 9), 0)
	r := measureFIO(le, workload.RandRead, b.Threads, 1, b.Requests)
	if r.DoubleFrac+r.TripleFrac < 0.2 {
		t.Fatalf("LeaFTL multi-read fraction %.2f too low after aging", r.DoubleFrac+r.TripleFrac)
	}
	tp, err := newWarmed(SchemeTPFTL, cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	rt := measureFIO(tp, workload.RandRead, b.Threads, 1, b.Requests)
	if rt.TripleFrac != 0 {
		t.Fatal("TPFTL produced triple reads")
	}
}

func TestExperimentRegistry(t *testing.T) {
	ids := ExperimentIDs()
	want := []string{"crashsweep", "faultsweep", "fig14", "fig15", "fig16", "fig17", "fig18",
		"fig19", "fig2", "fig20", "fig21", "fig22", "fig3", "fig6", "fig7",
		"fleet", "gclat", "gcsweep", "latbreak", "loadsweep", "mountlat",
		"scale", "scrublat", "table2", "tenantmix"}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids = %v, want %v", ids, want)
		}
	}
	// Every registry entry carries a -list description.
	for _, e := range ExperimentList() {
		if e.Desc == "" {
			t.Fatalf("experiment %q missing description", e.ID)
		}
	}
}

// TestReadmeListsEveryExperiment: README's "Experiment ids" list names
// every registered experiment, once, and nothing else.
func TestReadmeListsEveryExperiment(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, list, ok := strings.Cut(string(readme), "Experiment ids: `")
	list, _, ok2 := strings.Cut(list, "`")
	if !ok || !ok2 {
		t.Fatal("README has no \"Experiment ids: `...`\" list")
	}
	ids := strings.Fields(list)
	slices.Sort(ids)
	if want := ExperimentIDs(); !slices.Equal(ids, want) {
		t.Fatalf("README lists %v\nregistry has  %v", ids, want)
	}
}

// TestReadmeQuickstartIsTheExample: README's Quickstart code block is the
// body of the package Example in example_test.go, one tab dedented, so the
// snippet readers copy is one that tier 1 runs and checks the output of.
func TestReadmeQuickstartIsTheExample(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, block, ok := strings.Cut(string(readme), "## Quickstart\n\n```go\n")
	block, _, ok2 := strings.Cut(block, "```")
	if !ok || !ok2 {
		t.Fatal("README's Quickstart does not open with a ```go block")
	}
	src, err := os.ReadFile("example_test.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "example_test.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var body string
	for _, d := range file.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.Name == "Example" {
			body = string(src[fset.Position(fn.Body.Lbrace).Offset+1 : fset.Position(fn.Body.Rbrace).Offset])
		}
	}
	if body == "" {
		t.Fatal("example_test.go declares no package Example")
	}
	var want strings.Builder
	for _, line := range strings.Split(strings.Trim(body, "\n"), "\n") {
		want.WriteString(strings.TrimPrefix(line, "\t") + "\n")
	}
	if block != want.String() {
		t.Fatalf("README Quickstart:\n%s\nbody of Example:\n%s", block, want.String())
	}
}

func TestParseScheme(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Scheme
		ok   bool
	}{
		{"dftl", SchemeDFTL, true},
		{"TPFTL", SchemeTPFTL, true},
		{"leaFTL", SchemeLeaFTL, true},
		{"LEARNEDFTL", SchemeLearnedFTL, true},
		{"Ideal", SchemeIdeal, true},
		{"learned", 0, false},
		{"", 0, false},
	} {
		if got, ok := ParseScheme(c.in); got != c.want || ok != c.ok {
			t.Errorf("ParseScheme(%q) = %v, %v; want %v, %v", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestFig15AndTable2Run(t *testing.T) {
	tab := runTable(t, "fig15", TinyConfig(), TinyBudget())
	if len(tab.Rows) != 3 || !strings.Contains(tab.String(), "prediction") {
		t.Fatalf("Fig15 table wrong: %v", tab)
	}
	t2 := runTable(t, "table2", TinyConfig(), TinyBudget())
	if len(t2.Rows) != 4 {
		t.Fatalf("Table2 rows = %d", len(t2.Rows))
	}
}

func TestTableString(t *testing.T) {
	tab := Table{
		Title:  "demo",
		Header: []string{"a", "longcolumn"},
		Rows:   [][]string{{"x", "y"}},
	}
	s := tab.String()
	if !strings.Contains(s, "== demo ==") || !strings.Contains(s, "longcolumn") {
		t.Fatalf("table render: %q", s)
	}
	// A row wider than its header, and a table with no header at all, get
	// columns of their own.
	for _, c := range []struct {
		tab  Table
		want string
	}{
		{Table{Title: "wide", Header: []string{"a"}, Rows: [][]string{{"1", "22"}}},
			"== wide ==\na  \n1  22  \n"},
		{Table{Title: "bare", Rows: [][]string{{"x", "y"}, {"long", "z"}}},
			"== bare ==\n\nx     y  \nlong  z  \n"},
	} {
		if got := c.tab.String(); got != c.want {
			t.Errorf("%s: got %q, want %q", c.tab.Title, got, c.want)
		}
	}
}

func TestQuickExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke skipped in -short mode")
	}
	cfg := TinyConfig()
	b := TinyBudget()
	for _, id := range []string{"fig2", "fig6", "fig17", "fig18"} {
		if tab := runTable(t, id, cfg, b); len(tab.Rows) == 0 {
			t.Fatalf("%s: empty table", id)
		}
	}
}
