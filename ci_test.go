package learnedftl

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestCIPatternsNameDeclaredTests: every alternative of a -run, -bench or
// -fuzz pattern in a `go test` line of the CI workflow matches a Test,
// Benchmark, Fuzz or Example function declared in a package that line
// tests. `go test -run X` passes without a word when X matches nothing, so a
// renamed or deleted test would otherwise turn its guard step into a no-op.
// `-run xxx` and `-run '^$'`, the idioms for running no tests beside a
// benchmark or fuzz target, are the exceptions. The other way round, every
// Benchmark function of the module is matched by the -bench pattern of a
// line that names its package directory (`./...` holds no test files, so a
// line must list the directories): `go test ./...` compiles a benchmark but
// never runs it.
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
	benched := map[string][]*regexp.Regexp{} // package directory -> the -bench patterns run on it
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
		if pattern, ok := patterns["-bench"]; ok {
			top, _, _ := strings.Cut(pattern, "/")
			re, err := regexp.Compile(top)
			if err != nil {
				t.Fatalf("ci.yml: -bench %q: %v", pattern, err)
			}
			for _, dir := range dirs {
				benched[filepath.Clean(dir)] = append(benched[filepath.Clean(dir)], re)
			}
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
	benchmarks := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if files, _ := filepath.Glob(filepath.Join(path, "*_test.go")); len(files) == 0 {
			return nil
		}
		for _, name := range testFuncs(path) {
			if !strings.HasPrefix(name, "Benchmark") {
				continue
			}
			benchmarks++
			if !slices.ContainsFunc(benched[path], func(re *regexp.Regexp) bool { return re.MatchString(name) }) {
				t.Errorf("%s (in %s) is matched by no ci.yml -bench line that lists its directory", name, path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if benchmarks == 0 {
		t.Fatal("found no Benchmark function in the module")
	}
}

// TestDocsNameDeclaredFlags: every -flag on an ftlbench command line in the
// docs, the CI workflow and the verify skill is a flag cmd/ftlbench
// declares. The flag package rejects an unknown flag with exit 2, so a
// documented example of a deleted flag is a command that no longer runs.
// A command line is a line of a fenced code block (or of ci.yml) or an
// inline code span, from "ftlbench" up to a shell comment, pipe or list
// operator.
func TestDocsNameDeclaredFlags(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "cmd/ftlbench/main.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{"h": true, "help": true} // the flag package's own
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && len(call.Args) > 0 {
			sel, _ := call.Fun.(*ast.SelectorExpr)
			lit, _ := call.Args[0].(*ast.BasicLit)
			if sel != nil && lit != nil && lit.Kind == token.STRING {
				if set, _ := sel.X.(*ast.Ident); set != nil && set.Name == "fs" { // ftlbench's flag set
					name, _ := strconv.Unquote(lit.Value)
					declared[name] = true
				}
			}
		}
		return true
	})
	if len(declared) < 10 {
		t.Fatalf("found only %d flag declarations in cmd/ftlbench/main.go", len(declared)-2)
	}

	inline := regexp.MustCompile("`[^`]+`")
	flagRe := regexp.MustCompile(`(?:^|\s)--?([A-Za-z][\w-]*)`)
	commands := 0
	for _, path := range []string{"README.md", "EXPERIMENTS.md", ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Split the file into command-line candidates: code lines as they
		// are, inline code spans from the prose (they may wrap a line).
		var segments []string
		var prose strings.Builder
		fenced := strings.HasSuffix(path, ".yml")
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				segments = append(segments, line)
			} else {
				prose.WriteString(line + "\n")
			}
		}
		segments = append(segments, inline.FindAllString(prose.String(), -1)...)
		for _, seg := range segments {
			_, cmd, ok := strings.Cut(seg, "ftlbench")
			if !ok || strings.HasPrefix(strings.TrimSpace(seg), "#") {
				continue
			}
			if i := strings.IndexAny(cmd, "#|;&`"); i >= 0 {
				cmd = cmd[:i]
			}
			commands++
			for _, m := range flagRe.FindAllStringSubmatch(cmd, -1) {
				if !declared[m[1]] {
					t.Errorf("%s: ftlbench -%s is not a declared flag: %q", path, m[1], strings.TrimSpace(seg))
				}
			}
		}
	}
	if commands < 20 {
		t.Fatalf("found only %d ftlbench command lines in the docs", commands)
	}
}

// TestDocsNameDeclaredIdentifiers: every backquoted pkg.Name in README.md
// and EXPERIMENTS.md whose pkg is a package of this module names a
// top-level declaration of that package (`nand.Flash.Wear()` is checked as
// `nand.Flash`), so the docs cannot keep citing a type, function, variable
// or constant that was renamed or deleted. A name with an underscore is a
// benchmark metric (`sim.shard2_speedup`), and `pkg.go` a file, not a Go
// identifier. A bare `Config.X` or `Config.X.Y` is the device configuration
// and must resolve to fields of ftl.Config; `ftl.Config.Validate` is a
// package-qualified name and checked as one.
func TestDocsNameDeclaredIdentifiers(t *testing.T) {
	files, err := filepath.Glob("internal/*/*.go")
	if err != nil {
		t.Fatal(err)
	}
	root, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]map[string]bool{} // package name → top-level names
	for _, path := range append(root, files...) {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		names := declared[f.Name.Name]
		if names == nil {
			names = map[string]bool{}
			declared[f.Name.Name] = names
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					names[d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						names[s.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range s.Names {
							names[n.Name] = true
						}
					}
				}
			}
		}
	}
	if len(declared) < 15 {
		t.Fatalf("found only %d packages in the module", len(declared))
	}

	inline := regexp.MustCompile("`[^`]+`")
	cite := regexp.MustCompile(`(?:^|[^\w./])([a-z]\w*)\.(\w+)`)
	ident := regexp.MustCompile(`^[A-Za-z][A-Za-z0-9]*$`)
	field := regexp.MustCompile(`(?:^|[^\w.])Config((?:\.[A-Za-z]\w*)+)`)
	cited := map[string]bool{}
	fields := 0
	for _, path := range []string{"README.md", "EXPERIMENTS.md"} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var prose strings.Builder
		fenced := false
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
			} else if !fenced {
				prose.WriteString(line + "\n")
			}
		}
		for _, span := range inline.FindAllString(prose.String(), -1) {
			for _, m := range cite.FindAllStringSubmatch(span, -1) {
				pkg, name := m[1], m[2]
				names := declared[pkg]
				if names == nil || name == "go" || !ident.MatchString(name) {
					continue
				}
				cited[pkg+"."+name] = true
				if !names[name] {
					t.Errorf("%s: %s names no top-level declaration of package %s", path, span, pkg)
				}
			}
			for _, m := range field.FindAllStringSubmatch(span, -1) {
				fields++
				if err := resolveConfigPath(strings.Split(m[1][1:], ".")); err != nil {
					t.Errorf("%s: %s: %v", path, span, err)
				}
			}
		}
	}
	if len(cited) < 20 {
		t.Fatalf("found only %d package-qualified names in the docs", len(cited))
	}
	if fields == 0 {
		t.Fatal("found no Config field citations in the docs")
	}
	t.Logf("%d package-qualified names and %d Config field citations", len(cited), fields)
}

// resolveConfigPath walks path through ftl.Config's fields, nested structs
// included.
func resolveConfigPath(path []string) error {
	t := reflect.TypeOf(Config{})
	for _, name := range path {
		if t.Kind() != reflect.Struct {
			return fmt.Errorf("%s is not a struct", t)
		}
		f, ok := t.FieldByName(name)
		if !ok {
			return fmt.Errorf("%s has no field %s", t, name)
		}
		t = f.Type
	}
	return nil
}
