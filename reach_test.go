//go:build !race

package bdrmap

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// modulePath is this module's import path (go.mod).
const modulePath = "bdrmap"

// benchPath is the benchmark module's import path (bench/go.mod, which
// replaces bdrmap with this tree).
const benchPath = modulePath + "/bench"

// maxReachAllow caps testdata/reach_allow.txt: the list is for declarations
// a test of live behaviour needs, not a place to park dead code.
const maxReachAllow = 45

// stdMethodNames are the methods the standard library calls through its own
// interfaces (fmt, error, sort, net/http, io, encoding, flag, net.Conn): a
// reachable type's method with one of these names counts as reachable.
var stdMethodNames = map[string]bool{
	"String": true, "Error": true,
	"Len": true, "Less": true, "Swap": true,
	"ServeHTTP": true,
	"Read":      true, "Write": true, "Close": true,
	"LocalAddr": true, "RemoteAddr": true,
	"SetDeadline": true, "SetReadDeadline": true, "SetWriteDeadline": true,
}

func stdMethod(name string) bool {
	return stdMethodNames[name] || strings.HasPrefix(name, "Marshal") || strings.HasPrefix(name, "Unmarshal")
}

// modImporter type-checks this module's packages from source, each once, so
// an object has one identity however many packages name it; everything else
// (the standard library) goes to the go/importer "source" importer.
type modImporter struct {
	fset  *token.FileSet
	std   types.ImporterFrom
	pkgs  map[string]*types.Package
	files map[string][]*ast.File
	info  *types.Info
}

func (m *modImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

func (m *modImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path != modulePath && !strings.HasPrefix(path, modulePath+"/") {
		return m.std.ImportFrom(path, dir, mode)
	}
	if pkg, ok := m.pkgs[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return pkg, nil
	}
	m.pkgs[path] = nil
	rel := "." + strings.TrimPrefix(path, modulePath)
	bp, err := build.Default.ImportDir(rel, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(rel, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg, err := (&types.Config{Importer: m}).Check(path, m.fset, files, m.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path], m.files[path] = pkg, files
	return pkg, nil
}

// loadModule type-checks every package of the module outside testdata/,
// and the benchmark module in bench/, from source, once for the gates that
// share it.
var loadModule = sync.OnceValues(func() (*modImporter, error) {
	// The source importer would run cgo for net and os/user.
	defer func(cgo bool) { build.Default.CgoEnabled = cgo }(build.Default.CgoEnabled)
	build.Default.CgoEnabled = false

	fset := token.NewFileSet()
	m := &modImporter{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:  make(map[string]*types.Package),
		files: make(map[string][]*ast.File),
		info: &types.Info{
			Defs:  make(map[*ast.Ident]types.Object),
			Uses:  make(map[*ast.Ident]types.Object),
			Types: make(map[ast.Expr]types.TypeAndValue),
			// Instances: the field pass's type arguments.
			Instances: make(map[*ast.Ident]types.Instance),
		},
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (name == "testdata" || name[0] == '.' || name[0] == '_') {
			return filepath.SkipDir
		}
		if _, err := build.Default.ImportDir(path, 0); err != nil {
			if _, noGo := err.(*build.NoGoError); noGo {
				return nil
			}
			return err
		}
		_, err = m.Import(filepath.ToSlash(filepath.Join(modulePath, path)))
		return err
	})
	return m, err
})

// recvOf returns the named type obj is a method of, or nil when obj is not
// a method.
func recvOf(obj types.Object) *types.TypeName {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return nil
	}
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Obj()
}

// declName is how a declaration is written in the allow-list: the package's
// directory without "internal/", then the receiver for a method, then the
// name — bgp.Table.Path, netx.Aggregate, cmd/bdrmap.usage.
func declName(obj types.Object) string {
	name := obj.Name()
	if recv := recvOf(obj); recv != nil {
		name = recv.Name() + "." + name
	}
	return strings.TrimPrefix(strings.TrimPrefix(obj.Pkg().Path(), modulePath+"/"), "internal/") + "." + name
}

// readAllowList parses testdata/<file>: one "name  # reason" per line, at
// most max of them, each reason passing reasonOK — or failing the test as
// one that does not say what it must.
func readAllowList(t *testing.T, file string, max int, reasonOK func(name, reason string) bool, must string) map[string]bool {
	f, err := os.Open(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allow := make(map[string]bool)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, "#")
		name = strings.TrimSpace(name)
		if !reasonOK(name, strings.TrimSpace(reason)) {
			t.Errorf("%s: %q does not %s", file, line, must)
		}
		if allow[name] {
			t.Errorf("%s: %s listed twice", file, name)
		}
		allow[name] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(allow) > max {
		t.Errorf("%s lists %d names, cap is %d", file, len(allow), max)
	}
	return allow
}

// readReachAllow parses testdata/reach_allow.txt, whose reasons name the
// live-behaviour test that needs the declaration.
func readReachAllow(t *testing.T) map[string]bool {
	return readAllowList(t, "reach_allow.txt", maxReachAllow, func(_, reason string) bool {
		return strings.Contains(reason, "Test") || strings.Contains(reason, "Fuzz")
	}, "name the test that needs it")
}

// fieldName is how a field is written in the allow-list: its type's declName,
// then the field — alias.Graph.conflicts.
func fieldName(owner *types.TypeName, field *types.Var) string {
	return declName(owner) + "." + field.Name()
}

// assigned returns the field selector an assignment or ++/-- to e stores
// into — x.f in x.f = v, x.f += v, x.f[i] = v and x.f[i]++ — or nil. What e
// passes through on the way (x.g in x.g.f = v, p in *x.p = v) is read.
func assigned(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel
		default:
			return nil
		}
	}
}

// fieldStores maps every identifier through which a non-test file stores a
// field — a composite-literal key, or the target of an assignment or
// ++/-- — to the path of that file's package.
func fieldStores(m *modImporter) map[*ast.Ident]string {
	stores := make(map[*ast.Ident]string)
	for path, files := range m.files {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if id := assigned(lhs); id != nil {
							stores[id] = path
						}
					}
				case *ast.IncDecStmt:
					if id := assigned(n.X); id != nil {
						stores[id] = path
					}
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						if v, ok := m.info.Uses[id].(*types.Var); ok && v.IsField() {
							stores[id] = path
						}
					}
				}
				return true
			})
		}
	}
	return stores
}

// unreadFields is the field pass: the fields of the module's package-level
// struct types that no non-test file of the module or the benchmark reads.
// A composite-literal key and the target of an assignment are writes;
// every other mention is a read. A field with a struct tag is read by its
// encoder, through reflection, so what it needs instead is a non-test
// writer. A field is exempt when it is embedded (promotion reads it), is
// exported API of package bdrmap, or belongs to a type whose values are
// compared or hashed whole — a map key, an == operand, a type argument
// (generic code sees no fields) — which reads every field without naming
// one.
func unreadFields(m *modImporter) map[*types.Var]*types.TypeName {
	stores := fieldStores(m)
	wholeRead := make(map[*types.TypeName]bool)
	whole := func(t types.Type) {
		if n, ok := t.(*types.Named); ok {
			wholeRead[n.Origin().Obj()] = true
		}
	}
	for _, inst := range m.info.Instances {
		for i := 0; i < inst.TypeArgs.Len(); i++ {
			whole(inst.TypeArgs.At(i))
		}
	}
	for _, files := range m.files {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				if n, ok := n.(*ast.BinaryExpr); ok && (n.Op == token.EQL || n.Op == token.NEQ) {
					whole(m.info.TypeOf(n.X))
					whole(m.info.TypeOf(n.Y))
				}
				if e, ok := n.(ast.Expr); ok {
					if mt, ok := m.info.TypeOf(e).(*types.Map); ok {
						whole(mt.Key())
					}
				}
				return true
			})
		}
	}
	read := make(map[*types.Var]bool)
	written := make(map[*types.Var]bool)
	for id, obj := range m.info.Uses {
		if v, ok := obj.(*types.Var); ok && v.IsField() {
			if _, ok := stores[id]; ok {
				written[v.Origin()] = true
			} else {
				read[v.Origin()] = true
			}
		}
	}

	unread := make(map[*types.Var]*types.TypeName)
	for path, files := range m.files {
		if path == benchPath {
			continue
		}
		for _, f := range files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					owner, _ := m.info.Defs[ts.Name].(*types.TypeName)
					if owner == nil || wholeRead[owner] {
						continue
					}
					ast.Inspect(ts.Type, func(n ast.Node) bool {
						st, ok := n.(*ast.StructType)
						if !ok {
							return true
						}
						for _, fld := range st.Fields.List {
							// A tagged field's reader is its encoder, so
							// what it needs is a writer.
							used := read
							if fld.Tag != nil {
								used = written
							}
							for _, id := range fld.Names { // none when embedded
								v, _ := m.info.Defs[id].(*types.Var)
								if v == nil || id.Name == "_" || used[v] ||
									path == modulePath && id.IsExported() {
									continue
								}
								unread[v] = owner
							}
						}
						return true
					})
				}
			}
		}
	}
	return unread
}

// TestProductDeclarationsReachable is the dead-code gate: every package-level
// declaration and method in the module's non-test source must be reachable
// from something that runs — main and init of the commands and examples, the
// exported API of package bdrmap, or any declaration of the benchmark. A
// method is also reachable when its receiver type is and its name belongs to
// an interface declared in the module or to stdMethodNames (it is called
// through the interface). A struct field must
// be read somewhere, a tagged one written (see unreadFields). Anything else is dead and fails the
// test, unless testdata/reach_allow.txt lists it with the live-behaviour
// test that needs it; a listed declaration that is reachable, read or gone
// fails it too.
func TestProductDeclarationsReachable(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	m, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	fset := m.fset

	// Nodes are the top-level declarations; an edge runs from a declaration
	// to every declaration its source text uses.
	uses := make(map[types.Object][]types.Object)
	methods := make(map[types.Object][]*types.Func) // receiver type name → methods
	ifaceNames := make(map[string]bool)
	var roots []types.Object
	declare := func(pkg *types.Package, id *ast.Ident, body ast.Node) {
		obj := m.info.Defs[id]
		if obj == nil || id.Name == "_" {
			return
		}
		if _, seen := uses[obj]; !seen {
			uses[obj] = nil // declared, whatever it turns out to use
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				used := m.info.Uses[n]
				switch u := used.(type) {
				case *types.Func:
					used = u.Origin()
				case *types.Var:
					used = u.Origin()
				}
				if used != nil && used != obj {
					uses[obj] = append(uses[obj], used)
				}
			case *ast.InterfaceType:
				if it, ok := m.info.TypeOf(n).(*types.Interface); ok {
					for i := 0; i < it.NumMethods(); i++ {
						ifaceNames[it.Method(i).Name()] = true
					}
				}
			}
			return true
		})
		switch recv := recvOf(obj); {
		case pkg.Path() == benchPath:
			roots = append(roots, obj)
		case recv != nil:
			methods[recv] = append(methods[recv], obj.(*types.Func))
			if pkg.Path() == modulePath && id.IsExported() {
				roots = append(roots, obj)
			}
		case pkg.Name() == "main":
			if id.Name == "main" || id.Name == "init" {
				roots = append(roots, obj)
			}
		case pkg.Path() == modulePath && id.IsExported(), id.Name == "init":
			roots = append(roots, obj)
		}
	}
	for path, files := range m.files {
		pkg := m.pkgs[path]
		for _, f := range files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					declare(pkg, d.Name, d)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							declare(pkg, s.Name, s)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								declare(pkg, id, s)
							}
						}
					}
				}
			}
		}
	}

	reached := make(map[types.Object]bool)
	work := roots
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		if reached[obj] {
			continue
		}
		if _, declared := uses[obj]; !declared {
			continue // a field, a local, an interface method, another module's
		}
		reached[obj] = true
		work = append(work, uses[obj]...)
		for _, fn := range methods[obj] {
			if ifaceNames[fn.Name()] || stdMethod(fn.Name()) {
				work = append(work, fn)
			}
		}
	}

	allow := readReachAllow(t)
	var dead []string
	declared := make(map[string]bool)
	for obj := range uses {
		name := declName(obj)
		declared[name] = true
		switch {
		case !reached[obj] && !allow[name]:
			dead = append(dead, fmt.Sprintf("%s (%s)", name, fset.Position(obj.Pos())))
		case reached[obj] && allow[name]:
			t.Errorf("reach_allow.txt lists %s, which product code reaches: drop the line", name)
		}
	}
	// The field pass: a field product code only ever writes is dead too.
	var unread []string
	for field, owner := range unreadFields(m) {
		name := fieldName(owner, field)
		declared[name] = true
		if !allow[name] {
			unread = append(unread, fmt.Sprintf("%s (%s)", name, fset.Position(field.Pos())))
		}
	}
	for name := range allow {
		if !declared[name] {
			t.Errorf("reach_allow.txt lists %s, which is not declared, or is a field product code reads: drop the line", name)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("nothing reaches %s: delete it, or list it in testdata/reach_allow.txt with the test that needs it", d)
	}
	sort.Strings(unread)
	for _, f := range unread {
		t.Errorf("no product code reads field %s (or, if it is tagged, writes it): delete it, or list it in testdata/reach_allow.txt with the test that needs it", f)
	}
}

// maxKnobs caps testdata/knobs.txt, the census of settable values: a new
// knob pushes an old one out, or raises this cap in a visible diff.
const maxKnobs = 103

// knobTypes are the structs a caller tunes that the *Config / *Options
// naming rule does not catch.
var knobTypes = map[string]bool{"faults.Spec": true, "mapdb.Follower": true, "mapdb.WatchClient": true}

// flagDefiners are the flag package's functions, and FlagSet's methods,
// that define a flag.
var flagDefiners = map[string]bool{
	"Bool": true, "BoolVar": true, "BoolFunc": true, "Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true, "Func": true, "Int": true, "IntVar": true,
	"Int64": true, "Int64Var": true, "String": true, "StringVar": true, "TextVar": true,
	"Uint": true, "UintVar": true, "Uint64": true, "Uint64Var": true, "Var": true,
}

// pkgName is how the census names a package: its directory without
// "internal/" — bdrmap, eval, cmd/bdrmapd, bench.
func pkgName(path string) string {
	return strings.TrimPrefix(strings.TrimPrefix(path, modulePath+"/"), "internal/")
}

// cmdFlags maps every flag a command under cmd/ defines — "cmd/bdrmap
// -profile" — to its command.
func cmdFlags(m *modImporter) map[string]string {
	flags := make(map[string]string)
	for path, files := range m.files {
		if !strings.HasPrefix(path, modulePath+"/cmd/") {
			continue
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := m.info.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "flag" || !flagDefiners[fn.Name()] {
					return true
				}
				for _, arg := range call.Args { // the flag's name is its first string constant
					if c := m.info.Types[arg].Value; c != nil && c.Kind() == constant.String {
						flags[pkgName(path)+" -"+constant.StringVal(c)] = pkgName(path)
						break
					}
				}
				return true
			})
		}
	}
	return flags
}

// settableValues is the census: every exported field of a struct type named
// *Config or *Options or listed in knobTypes, mapped to the packages whose
// non-test code writes it (none for a field only tests set), and every flag
// a command under cmd/ defines (cmdFlags) mapped to its command.
func settableValues(m *modImporter) map[string][]string {
	writers := make(map[*types.Var]map[string]bool)
	for id, path := range fieldStores(m) {
		v, ok := m.info.Uses[id].(*types.Var)
		if !ok {
			continue
		}
		v = v.Origin()
		if writers[v] == nil {
			writers[v] = make(map[string]bool)
		}
		writers[v][pkgName(path)] = true
	}
	census := make(map[string][]string)
	for path, files := range m.files {
		if path == benchPath {
			continue
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				owner, _ := m.info.Defs[ts.Name].(*types.TypeName)
				st, ok := owner.Type().Underlying().(*types.Struct)
				name := owner.Name()
				if !ok || !strings.HasSuffix(name, "Config") && !strings.HasSuffix(name, "Options") && !knobTypes[declName(owner)] {
					return true
				}
				for i := 0; i < st.NumFields(); i++ {
					if fld := st.Field(i); fld.Exported() {
						who := make([]string, 0, len(writers[fld]))
						for pkg := range writers[fld] {
							who = append(who, pkg)
						}
						sort.Strings(who)
						census[fieldName(owner, fld)] = who
					}
				}
				return true
			})
		}
	}
	for name, cmd := range cmdFlags(m) {
		census[name] = []string{cmd}
	}
	return census
}

// TestSettableValuesCensus holds testdata/knobs.txt to the module's settable
// values (settableValues), one "name  # who sets it" per line: every value
// is listed and every listed name is a value. A field some non-test code
// writes names a writing package among its reason's words; a field no
// non-test code writes names the test that sets it; a flag says what it
// sets. ROADMAP aim 2's rule — a new knob needs a product writer that
// varies it — thus shows up as a diff to the file, which is capped at
// maxKnobs lines.
func TestSettableValuesCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	m, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	census := settableValues(m)
	listed := readAllowList(t, "knobs.txt", maxKnobs, func(name, reason string) bool {
		who, ok := census[name]
		switch {
		case !ok || strings.HasPrefix(name, "cmd/"):
			return reason != ""
		case len(who) == 0:
			return strings.Contains(reason, "Test")
		}
		for _, word := range strings.FieldsFunc(reason, func(r rune) bool { return strings.ContainsRune(" ,:;()", r) }) {
			if slices.Contains(who, word) {
				return true
			}
		}
		return false
	}, "say who sets it: a package that writes the field, the test that sets a field no product code writes, or what a flag sets")
	var missing []string
	for name, who := range census {
		if !listed[name] {
			missing = append(missing, fmt.Sprintf("%s (written by %v)", name, who))
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		t.Errorf("settable value %s is not in testdata/knobs.txt: a new knob needs a product writer that varies it, or a test that sets it; list it with who sets it, or delete it", name)
	}
	for name := range listed {
		if _, ok := census[name]; !ok {
			t.Errorf("knobs.txt lists %s, which is not a settable value: drop the line", name)
		}
	}
}
