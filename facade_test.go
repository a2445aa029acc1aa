package rrfd_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestFacadeHasNoOrphans keeps the facade pruned: every exported top-level
// name of the root package must be referenced, as a selector on the root
// import, by a cmd/ main, an example or a root test. A name nothing reads is
// deleted, not kept for a caller that might come.
func TestFacadeHasNoOrphans(t *testing.T) {
	fset := token.NewFileSet()
	exported := map[string]string{} // name -> declaring file
	used := map[string]bool{}

	// uses records every <root import>.<Name> selector of one file.
	uses := func(f *ast.File) {
		local := ""
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "repro" {
				local = "rrfd" // the package's own name, absent a rename
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
	}

	// declares records every exported top-level name of one root file.
	declares := func(file string, f *ast.File) {
		add := func(id *ast.Ident) {
			if id.IsExported() {
				exported[id.Name] = file
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id)
						}
					}
				}
			}
		}
	}

	parse := func(path string) *ast.File {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	root, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range root {
		if strings.HasSuffix(file, "_test.go") {
			uses(parse(file))
		} else {
			declares(file, parse(file))
		}
	}
	for _, dir := range []string{"cmd", "examples"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				uses(parse(path))
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	var orphans []string
	for name, file := range exported {
		if !used[name] {
			orphans = append(orphans, file+": "+name)
		}
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Errorf("%d of %d exported facade names are referenced by no cmd/, examples/ or root test file:\n  %s",
			len(orphans), len(exported), strings.Join(orphans, "\n  "))
	}
}
