package rrfd_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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

// TestConfigFieldsHaveSetters keeps the options pruned: an exported field of
// an internal/* struct named …Config or …Options must be set — as a keyed
// literal field or by assignment — by a non-test file outside the declaring
// package (cmd/, examples/, bench/, the facade or another internal package).
// A field only its own package's tests set is unexported; one nothing sets
// is a constant. Types are resolved from syntax alone: pkg.Type{…} through
// the file's imports, rrfd.Alias{…} through the facade's aliases, and an
// assignment x.F = … counts for every such type with a field F that the file
// can name. kept lists the exceptions, each with who sets it instead.
func TestConfigFieldsHaveSetters(t *testing.T) {
	kept := map[string]string{
		"internal/serve.Config.ClientListener":         "serve.StartCluster, from ClusterConfig",
		"internal/serve.Config.Mesh":                   "serve.StartCluster, from ClusterConfig",
		"internal/serve.Config.MeshListener":           "serve.StartCluster, from ClusterConfig",
		"internal/serve.Config.Shards":                 "serve.StartCluster, from ClusterConfig",
		"internal/netsub.Config.DialTimeout":           "another package's test: msgnet/samebody_test.go",
		"internal/netsub.Config.RedialUnit":            "another package's test: msgnet/samebody_test.go",
		"internal/netsub.Config.WriteTimeout":          "another package's test: msgnet/samebody_test.go",
		"internal/reliablelink.Config.MaxAttempts":     "another package's test: netsub/chaosproxy_test.go",
		"internal/reliablelink.Config.RetransmitAfter": "another package's test: netsub/chaosproxy_test.go",
		"internal/reliablelink.Config.RetransmitCap":   "another package's test: netsub/chaosproxy_test.go",
		"internal/mc.Options.NoPrune":                  "the external test package mc_test (plantedbug_test.go)",
		"internal/mc.Options.Independent":              "ROADMAP item 1 names it as its reader",
	}

	fset := token.NewFileSet()
	files := map[string]*ast.File{} // non-test files by slash path
	for _, dir := range []string{".", "cmd", "examples", "bench", "internal"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if dir == "." && path != "." || dir == "bench" && path != "bench" {
					return filepath.SkipDir // root and bench/: the files directly inside
				}
				return nil
			}
			if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
				if err != nil {
					return err
				}
				files[filepath.ToSlash(path)] = f
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	dirOf := func(path string) string {
		if i := strings.LastIndex(path, "/"); i >= 0 {
			return path[:i]
		}
		return "."
	}
	// imports maps a file's local package names to module directories.
	imports := func(f *ast.File) map[string]string {
		m := map[string]string{}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if p != "repro" && !strings.HasPrefix(p, "repro/") {
				continue
			}
			dir, name := ".", "rrfd"
			if p != "repro" {
				dir = strings.TrimPrefix(p, "repro/")
				name = dir[strings.LastIndex(dir, "/")+1:]
			}
			if imp.Name != nil {
				name = imp.Name.Name
			}
			m[name] = dir
		}
		return m
	}

	type typ struct{ dir, name string }
	fields := map[typ][]string{} // option struct -> exported fields
	byField := map[string][]typ{}
	alias := map[string]typ{} // facade alias -> option struct
	for path, f := range files {
		dir := dirOf(path)
		imps := imports(f)
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, s := range gd.Specs {
				ts, ok := s.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if sel, ok := ts.Type.(*ast.SelectorExpr); ok && dir == "." && ts.Assign.IsValid() {
					if x, ok := sel.X.(*ast.Ident); ok && imps[x.Name] != "" {
						alias[ts.Name.Name] = typ{imps[x.Name], sel.Sel.Name}
					}
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !strings.HasPrefix(dir, "internal/") ||
					!strings.HasSuffix(ts.Name.Name, "Config") && !strings.HasSuffix(ts.Name.Name, "Options") {
					continue
				}
				for _, fl := range st.Fields.List {
					for _, n := range fl.Names {
						if n.IsExported() {
							k := typ{dir, ts.Name.Name}
							fields[k] = append(fields[k], n.Name)
							byField[n.Name] = append(byField[n.Name], k)
						}
					}
				}
			}
		}
	}

	set := map[string]bool{} // "dir.Type.Field" set from outside dir
	for path, f := range files {
		dir := dirOf(path)
		imps := imports(f)
		resolve := func(e ast.Expr) (typ, bool) {
			sel, ok := e.(*ast.SelectorExpr)
			if !ok {
				return typ{}, false
			}
			x, ok := sel.X.(*ast.Ident)
			if !ok || imps[x.Name] == "" {
				return typ{}, false
			}
			if imps[x.Name] == "." {
				k, ok := alias[sel.Sel.Name]
				return k, ok
			}
			return typ{imps[x.Name], sel.Sel.Name}, true
		}
		// names reports whether this file can write the type k down.
		names := func(k typ) bool {
			for _, d := range imps {
				if d == k.dir {
					return true
				}
				if d == "." {
					for _, a := range alias {
						if a == k {
							return true
						}
					}
				}
			}
			return false
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if k, ok := resolve(n.Type); ok && k.dir != dir {
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								set[k.dir+"."+k.name+"."+id.Name] = true
							}
						}
					}
				}
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					if sel, ok := l.(*ast.SelectorExpr); ok {
						for _, k := range byField[sel.Sel.Name] {
							if k.dir != dir && names(k) {
								set[k.dir+"."+k.name+"."+sel.Sel.Name] = true
							}
						}
					}
				}
			}
			return true
		})
	}

	var unset, stale []string
	total := 0
	for k, fs := range fields {
		for _, name := range fs {
			total++
			id := k.dir + "." + k.name + "." + name
			if _, ok := kept[id]; ok == set[id] {
				if ok {
					stale = append(stale, id)
				} else {
					unset = append(unset, id)
				}
			}
			delete(kept, id)
		}
	}
	for id := range kept {
		stale = append(stale, id)
	}
	sort.Strings(unset)
	sort.Strings(stale)
	if len(unset) > 0 {
		t.Errorf("%d of %d exported Config/Options fields are set by no non-test file outside their package:\n  %s",
			len(unset), total, strings.Join(unset, "\n  "))
	}
	if len(stale) > 0 {
		t.Errorf("kept lists fields that are gone or that a caller now sets:\n  %s", strings.Join(stale, "\n  "))
	}
}

// TestObsNamesNoSubsystem keeps the sinks generic: no non-test file of
// internal/obs or internal/obs/trace spells an event kind ("serve.shed",
// "rlink.retransmit"), so no sink counts, splits or draws one subsystem's
// events apart from the rest. What a kind's fields mean, and its counts,
// stay in the package that emits it.
func TestObsNamesNoSubsystem(t *testing.T) {
	kind := regexp.MustCompile(`^[a-z]+\.[a-z_]+$`)
	fset := token.NewFileSet()
	named := map[string]bool{}
	for _, dir := range []string{"internal/obs", "internal/obs/trace"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if s, err := strconv.Unquote(lit.Value); err == nil && kind.MatchString(s) {
						named[s] = true
					}
				}
				return true
			})
		}
	}
	if len(named) > 0 {
		names := make([]string, 0, len(named))
		for s := range named {
			names = append(names, s)
		}
		sort.Strings(names)
		t.Errorf("internal/obs names %d event kinds:\n  %s", len(names), strings.Join(names, "\n  "))
	}
}

// TestChangesEntriesArePointers keeps CHANGES.md an index: an entry
// ("- PR n: …", up to the next entry or blank line) is one paragraph of at
// most 1 000 bytes pointing at its commit, which holds the full account.
func TestChangesEntriesArePointers(t *testing.T) {
	data, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	entry := regexp.MustCompile(`^- PR (\d+):`)
	var long []string
	id, size := "", 0
	check := func() {
		if id != "" && size > 1000 {
			long = append(long, fmt.Sprintf("PR %s: %d bytes", id, size))
		}
		id, size = "", 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		switch m := entry.FindStringSubmatch(line); {
		case m != nil:
			check()
			id, size = m[1], len(line)
		case line == "" || strings.HasPrefix(line, "- "):
			check()
		case id != "":
			size += 1 + len(line)
		}
	}
	check()
	if len(long) > 0 {
		t.Errorf("%d CHANGES.md entries over 1 000 bytes:\n  %s", len(long), strings.Join(long, "\n  "))
	}
}

// designBudget caps DESIGN.md: the design document describes the code as
// it stands, so a section about a removed mechanism or a past state is
// cut, not kept beside its replacement.
const designBudget = 95000

// TestDesignFitsBudget fails when DESIGN.md outgrows designBudget bytes.
func TestDesignFitsBudget(t *testing.T) {
	info, err := os.Stat("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() > designBudget {
		t.Errorf("DESIGN.md is %d bytes, over its %d-byte budget: cut text about removed mechanisms or past states", info.Size(), designBudget)
	}
}
