package learnedftl

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIPatternsNameDeclaredTests: every alternative of a -run, -bench or
// -fuzz pattern in a `go test` line of the CI workflow matches a Test,
// Benchmark, Fuzz or Example function declared in a package that line
// tests. `go test -run X` passes without a word when X matches nothing, so a
// renamed or deleted test would otherwise turn its guard step into a no-op.
// `-run xxx` and `-run '^$'`, the idioms for running no tests beside a
// benchmark or fuzz target, are the exceptions.
func TestCIPatternsNameDeclaredTests(t *testing.T) {
	yml, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string][]string{} // package directory -> test function names
	testFuncs := func(dir string) []string {
		if names, ok := declared[dir]; ok {
			return names
		}
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("ci.yml tests %s, which holds no test files", dir)
		}
		var names []string
		for _, path := range files {
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
					names = append(names, fn.Name.Name)
				}
			}
		}
		declared[dir] = names
		return names
	}
	prefixes := map[string]string{"-run": "Test|Example|Fuzz", "-bench": "Benchmark", "-fuzz": "Fuzz"}
	lines := 0
	for _, line := range strings.Split(string(yml), "\n") {
		_, cmd, ok := strings.Cut(line, "go test ")
		if !ok || strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		lines++
		var dirs []string
		patterns := map[string]string{}
		fields := strings.Fields(strings.ReplaceAll(cmd, "'", ""))
		for i := 0; i < len(fields); i++ {
			flag, value, hasValue := strings.Cut(fields[i], "=")
			switch {
			case !strings.HasPrefix(flag, "-"):
				dirs = append(dirs, fields[i])
			case prefixes[flag] != "" || flag == "-benchtime" || flag == "-fuzztime":
				if !hasValue {
					i++
					value = fields[i]
				}
				if prefixes[flag] != "" {
					patterns[flag] = value
				}
			}
		}
		if len(dirs) == 0 {
			dirs = []string{"."}
		}
		for flag, pattern := range patterns {
			if flag == "-run" && (pattern == "xxx" || pattern == "^$") {
				continue
			}
			pattern, _, _ = strings.Cut(pattern, "/") // top-level names only
			kind := regexp.MustCompile("^(" + prefixes[flag] + ")")
			for _, alt := range strings.Split(pattern, "|") {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Fatalf("ci.yml: %s %q: %v", flag, alt, err)
				}
				found := false
				for _, dir := range dirs {
					for _, name := range testFuncs(dir) {
						found = found || (kind.MatchString(name) && re.MatchString(name))
					}
				}
				if !found {
					t.Errorf("ci.yml: %s alternative %q matches no %s function in %v", flag, alt, prefixes[flag], dirs)
				}
			}
		}
	}
	if lines == 0 {
		t.Fatal("ci.yml has no go test line")
	}
}
