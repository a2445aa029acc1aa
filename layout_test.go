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

// TestRootHoldsOnlyTests keeps the module root free of a package: the
// commands, the examples and bench/ import the internal packages they call,
// so a non-test .go file at the root would be a second name for something
// internal/ already names.
func TestRootHoldsOnlyTests(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var code []string
	for _, file := range files {
		if !strings.HasSuffix(file, "_test.go") {
			code = append(code, file)
		}
	}
	if len(code) > 0 {
		t.Errorf("the module root holds %d non-test Go files; move their code into the internal package it belongs to:\n  %s",
			len(code), strings.Join(code, "\n  "))
	}
}

// TestConfigFieldsHaveSetters keeps the options pruned: an exported field of
// an internal/* struct named …Config, …Options or …Policy must be set — as
// a keyed literal field or by assignment — by a non-test file outside the
// declaring package (cmd/, examples/, bench/ or another internal package).
// A field only its own package's tests set is unexported; one nothing sets
// is a constant. Types are resolved from syntax alone: pkg.Type{…} through
// the file's imports, and an assignment x.F = … counts for every such type
// with a field F that the file can name. kept lists the exceptions, each
// with who sets it instead.
func TestConfigFieldsHaveSetters(t *testing.T) {
	kept := map[string]string{
		"internal/serve.Config.ClientListener": "serve.StartCluster, from ClusterConfig",
		"internal/serve.Config.Mesh":           "serve.StartCluster, from ClusterConfig",
		"internal/serve.Config.MeshListener":   "serve.StartCluster, from ClusterConfig",
		"internal/mc.Options.NoPrune":          "the external test package mc_test (plantedbug_test.go), external because adversary imports mc",
		"internal/mc.Options.Independent":      "ROADMAP items 2 and 5 name it as their reader",
	}

	fset := token.NewFileSet()
	files := map[string]*ast.File{} // non-test files by slash path
	for _, dir := range []string{"cmd", "examples", "bench", "internal"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if dir == "bench" && path != "bench" {
					return filepath.SkipDir // bench/: the files directly inside
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
	dirOf := func(path string) string { return path[:strings.LastIndex(path, "/")] }
	// imports maps a file's local package names to module directories.
	imports := func(f *ast.File) map[string]string {
		m := map[string]string{}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if !strings.HasPrefix(p, "repro/") {
				continue
			}
			dir := strings.TrimPrefix(p, "repro/")
			name := dir[strings.LastIndex(dir, "/")+1:]
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
	for path, f := range files {
		dir := dirOf(path)
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
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !strings.HasPrefix(dir, "internal/") ||
					!strings.HasSuffix(ts.Name.Name, "Config") && !strings.HasSuffix(ts.Name.Name, "Options") &&
						!strings.HasSuffix(ts.Name.Name, "Policy") {
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
			return typ{imps[x.Name], sel.Sel.Name}, true
		}
		// names reports whether this file can write the type k down.
		names := func(k typ) bool {
			for _, d := range imps {
				if d == k.dir {
					return true
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
		t.Errorf("%d of %d exported Config/Options/Policy fields are set by no non-test file outside their package:\n  %s",
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

// TestOneSchedulingAdversary keeps the scheduling adversary in one place:
// no non-test file outside internal/core declares a chooser type
// (func(step int, options []PID) int) or writes an xorshift step (three
// consecutive `x ^= x << a` / `>> b` shifts). Substrates take core.Chooser
// and draw from core.Rand. The one exception is named with its reason.
func TestOneSchedulingAdversary(t *testing.T) {
	kept := map[string]string{
		"internal/mc/explore.go": "the frontier-sampling stream: another xorshift variant, which fixes every sampled `rrfdsim mc -depth` schedule",
	}
	isInt := func(e ast.Expr) bool { id, ok := e.(*ast.Ident); return ok && id.Name == "int" }
	isPIDs := func(e ast.Expr) bool {
		at, ok := e.(*ast.ArrayType)
		if !ok || at.Len != nil {
			return false
		}
		switch el := at.Elt.(type) {
		case *ast.Ident:
			return el.Name == "PID"
		case *ast.SelectorExpr:
			return el.Sel.Name == "PID"
		}
		return false
	}
	// shift reports whether s is `x ^= x << k` or `x ^= x >> k`.
	shift := func(s ast.Stmt) bool {
		as, ok := s.(*ast.AssignStmt)
		if !ok || as.Tok != token.XOR_ASSIGN || len(as.Rhs) != 1 {
			return false
		}
		be, ok := as.Rhs[0].(*ast.BinaryExpr)
		return ok && (be.Op == token.SHL || be.Op == token.SHR)
	}
	fset := token.NewFileSet()
	var bad []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		if d.IsDir() {
			if path == "internal/core" || path == ".git" || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") || kept[path] != "" {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				ft, ok := n.Type.(*ast.FuncType)
				if ok && ft.Results != nil && len(ft.Results.List) == 1 && isInt(ft.Results.List[0].Type) {
					var params []ast.Expr
					for _, p := range ft.Params.List {
						for range max(1, len(p.Names)) {
							params = append(params, p.Type)
						}
					}
					if len(params) == 2 && isInt(params[0]) && isPIDs(params[1]) {
						bad = append(bad, fmt.Sprintf("%s: chooser type %s", fset.Position(n.Pos()), n.Name.Name))
					}
				}
			case *ast.BlockStmt:
				for i := 0; i+2 < len(n.List); i++ {
					if shift(n.List[i]) && shift(n.List[i+1]) && shift(n.List[i+2]) {
						bad = append(bad, fmt.Sprintf("%s: xorshift step", fset.Position(n.List[i].Pos())))
						break
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) > 0 {
		t.Errorf("the scheduling adversary is spelled outside internal/core (use core.Chooser, core.Rand):\n  %s",
			strings.Join(bad, "\n  "))
	}
}

// TestOneModelVocabulary keeps hoalg expressions the one way to name a
// model: outside internal/hoalg, no non-test file declares an exported
// function that returns a predicate.P — write hoalg.SyncCrash(f).Compile(),
// not a second constructor for the same clauses. predicate's combinators
// and its atom driver build checkers rather than name models.
func TestOneModelVocabulary(t *testing.T) {
	kept := map[string]string{
		"internal/predicate.And":              "combinator",
		"internal/predicate.Or":               "combinator",
		"internal/predicate.Not":              "combinator",
		"internal/predicate.AtomKind.Checker": "the atom table's trace driver",
		"internal/predicate.PerRoundBudget":   "bench/ pins its name async-mp(f=…) in the chaos goldens (ROADMAP item 1)",
	}
	// returnsP reports whether a result type is predicate.P (P inside
	// internal/predicate).
	returnsP := func(pkg string, e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.Ident:
			return pkg == "internal/predicate" && e.Name == "P"
		case *ast.SelectorExpr:
			x, ok := e.X.(*ast.Ident)
			return ok && x.Name == "predicate" && e.Sel.Name == "P"
		}
		return false
	}
	fset := token.NewFileSet()
	var bad []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		if d.IsDir() {
			if path == "internal/hoalg" || path == ".git" || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(filepath.Dir(path))
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() || fn.Type.Results == nil {
				continue
			}
			name := pkg + "." + fn.Name.Name
			if fn.Recv != nil && len(fn.Recv.List) == 1 {
				if recv, ok := fn.Recv.List[0].Type.(*ast.Ident); ok {
					name = pkg + "." + recv.Name + "." + fn.Name.Name
				}
			}
			for _, res := range fn.Type.Results.List {
				if returnsP(pkg, res.Type) && kept[name] == "" {
					bad = append(bad, fmt.Sprintf("%s: %s", fset.Position(fn.Pos()), name))
					break
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) > 0 {
		t.Errorf("a model is named outside internal/hoalg (write it as a hoalg expression and Compile it):\n  %s",
			strings.Join(bad, "\n  "))
	}
}

// TestServeKnowsNoValueCodec keeps the mesh frame's format in one module
// per layer: netsub frames bytes, and serve's messages back to back are a
// data frame's whole payload (internal/serve/wire.go). No non-test file of
// internal/serve names netsub's value codec, which only Send and Recv use.
func TestServeKnowsNoValueCodec(t *testing.T) {
	codec := map[string]bool{"AppendValue": true, "DecodeValue": true, "BytesPayload": true}
	files, err := filepath.Glob("internal/serve/*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var bad []string
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && codec[sel.Sel.Name] {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "netsub" {
					bad = append(bad, fmt.Sprintf("%s: netsub.%s", fset.Position(sel.Pos()), sel.Sel.Name))
				}
			}
			return true
		})
	}
	if len(bad) > 0 {
		t.Errorf("internal/serve names netsub's value codec (send bytes with Node.SendBytes; Deliver gets them as framed):\n  %s",
			strings.Join(bad, "\n  "))
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
