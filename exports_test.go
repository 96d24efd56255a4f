package hputune_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportAllowlist names the exported internal functions that no
// non-test code calls yet but that stay on purpose, each with its
// reason.
var exportAllowlist = map[string]string{
	"stats.KSTest":                "goodness-of-fit machinery for checking the paper's market model against observed traces",
	"stats.RateIntervalFromCount": "chi-square rate intervals for the same market-model check",
	"dist.NewMaxOrder":            "MaxOrder.MeanDensityForm is the density-form cross-check of the E[max] integrals",
}

// exportScanRoots are the directories whose non-test Go files count as
// callers: the root package (its own directory only), the binaries, the
// examples, the internal packages and the perfbench module.
var exportScanRoots = []string{"cmd", "examples", "internal", "perfbench"}

// TestNoTestOnlyExports fails when a top-level exported function in
// internal/** has no reference from non-test code: no import-qualified
// selector (pkg.Name) and no identifier in its own package, not
// counting the function's own body. Code that only tests call belongs
// in a _test.go file or nowhere. Methods are not checked: without type
// information a method call cannot be told from any other selector.
func TestNoTestOnlyExports(t *testing.T) {
	const module = "hputune"
	fset := token.NewFileSet()
	decls := map[string]string{} // "<import path>.<Name>" -> "<pkg>.<Name>"
	refs := map[string]bool{}

	scan := func(path string) {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		pkgPath := module
		if dir != "." {
			pkgPath = module + "/" + dir
		}
		imports := map[string]string{}
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = p
		}
		for _, d := range f.Decls {
			var self string
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				self = pkgPath + "." + fd.Name.Name
				if strings.HasPrefix(dir, "internal/") && fd.Name.IsExported() {
					decls[self] = strings.TrimPrefix(dir, "internal/") + "." + fd.Name.Name
				}
			}
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.FuncDecl:
					// The name is the declaration itself, not a use.
					if x.Recv != nil {
						ast.Inspect(x.Recv, visit)
					}
					ast.Inspect(x.Type, visit)
					if x.Body != nil {
						ast.Inspect(x.Body, visit)
					}
					return false
				case *ast.SelectorExpr:
					if id, ok := x.X.(*ast.Ident); ok {
						if p, ok := imports[id.Name]; ok {
							refs[p+"."+x.Sel.Name] = true
							return false
						}
					}
					// A field or method selector names no function of
					// this package.
					ast.Inspect(x.X, visit)
					return false
				case *ast.Ident:
					if key := pkgPath + "." + x.Name; key != self {
						refs[key] = true
					}
				}
				return true
			}
			ast.Inspect(d, visit)
		}
	}

	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() && isNonTestGo(e.Name()) {
			scan(e.Name())
		}
	}
	for _, root := range exportScanRoots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if !d.IsDir() && isNonTestGo(d.Name()) {
				scan(path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	unused := map[string]bool{}
	for key, name := range decls {
		if !refs[key] {
			unused[name] = true
		}
	}
	for name := range exportAllowlist {
		if !unused[name] {
			t.Errorf("allowlisted %s now has a non-test caller or no longer exists; drop it from exportAllowlist", name)
		}
		delete(unused, name)
	}
	if len(unused) > 0 {
		names := make([]string, 0, len(unused))
		for name := range unused {
			names = append(names, name)
		}
		sort.Strings(names)
		t.Errorf("%d exported internal functions have no caller outside tests; delete them or move them into a _test.go file:\n\t%s",
			len(names), strings.Join(names, "\n\t"))
	}
}

func isNonTestGo(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}
