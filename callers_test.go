package learnedftl

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// callerExempt lists the top-level declarations TestShippedCodeHasACaller
// accepts without a non-test caller, keyed "pkg.Name" or "pkg.Recv.Name".
// Each entry says why it stays.
var callerExempt = map[string]string{
	// Observers that tests in other packages read; a _test.go file is not
	// visible outside its own package.
	"learnedftl/internal/gc.Controller.CollectOnce":       "ftl tests force one collection",
	"learnedftl/internal/mapping.CMT.Peek":                "core and demand tests read an entry without touching recency",
	"learnedftl/internal/mapping.CMT.DirtyLen":            "persist tests count dirty entries after a restore",
	"learnedftl/internal/nand.AddrCodec.Encode":           "ftl and gc tests build physical page numbers",
	"learnedftl/internal/nand.AddrCodec.BlockAddr":        "ftl and gc tests find a block's first page",
	"learnedftl/internal/nand.Flash.CutArmed":             "crash tests check an uncut window leaves the cut disarmed",
	"learnedftl/internal/stats.Collector.ReadPercentile":  "sim tests read the read tail",
	"learnedftl/internal/stats.Collector.WritePercentile": "root and sim tests read the write tail",
	"learnedftl/internal/workload.TrimWrite":              "root GC and persistence tests mix trims into their runs",
	"learnedftl/internal/learned.FitExact":                "the root PLR microbenchmark times the exact fit",
	"learnedftl/internal/learned.LSMT.NumSegments":        "leaftl tests count a table's live segments",
	"learnedftl/internal/core.LearnedFTL.ModelAccuracy":   "Example_ablation prints it: the paper's model-accuracy metric",

	// Interface methods the standard library calls.
	"learnedftl/internal/nand.PowerCut.Error": "implements error: a PowerCut panic that escapes a harness prints through it",
}

// TestShippedCodeHasACaller fails when a non-test file declares a top-level
// name that no other non-test identifier in the module uses: such code is
// reached only by tests, so it is deleted or moved into a _test.go file.
// The match is by name, so a declaration passes when anything shares its
// name: the check misses dead code whose name is used elsewhere, and it
// flags a method only the standard library calls (exempt those).
func TestShippedCodeHasACaller(t *testing.T) {
	type decl struct {
		key   string
		ident *ast.Ident
	}
	var decls []decl
	declIdent := map[*ast.Ident]bool{}
	uses := map[string]int{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "learnedftl"
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir
		}
		add := func(recv string, id *ast.Ident) {
			declIdent[id] = true
			if id.Name == "_" || (recv == "" && (id.Name == "main" || id.Name == "init")) {
				return
			}
			key := pkg + "." + id.Name
			if recv != "" {
				key = pkg + "." + recv + "." + id.Name
			}
			decls = append(decls, decl{key, id})
		}
		for _, dl := range file.Decls {
			switch dl := dl.(type) {
			case *ast.FuncDecl:
				add(recvName(dl), dl.Name)
			case *ast.GenDecl:
				for _, spec := range dl.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add("", s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add("", id)
						}
					}
				}
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declIdent[id] {
				uses[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	exempted := map[string]bool{}
	for _, d := range decls {
		if uses[d.ident.Name] > 0 {
			continue
		}
		if callerExempt[d.key] != "" {
			exempted[d.key] = true
			continue
		}
		dead = append(dead, fmt.Sprintf("%s (%s) has no non-test caller: delete it, move it into a _test.go file, or exempt it in callerExempt", d.key, fset.Position(d.ident.Pos())))
	}
	for key := range callerExempt {
		if !exempted[key] {
			dead = append(dead, key+" is exempt but has a non-test caller or is gone: drop it from callerExempt")
		}
	}
	sort.Strings(dead)
	for _, msg := range dead {
		t.Error(msg)
	}
}

// recvName returns the receiver type name of a method, or "" for a function.
func recvName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
