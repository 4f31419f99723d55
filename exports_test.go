package baryon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names exports under internal/ that no non-test code
// calls but that stay exported on purpose, each with its reason. Keys are
// "<import path>.<Name>" for a top-level name and
// "<import path>.<Type>.<Method>" for a method or an interface method.
var exportAllowlist = map[string]string{
	"baryon/internal/metadata.SuperEntries": "the Section III-C prefix-sum slot decode; " +
		"core's tests check the committed layout against it, so it cannot move into metadata's tests",
	"baryon/internal/metadata.SuperEntries.SlotPosition": "the slot decode itself; same reason as SuperEntries",
	"baryon/internal/cache.Hierarchy.CheckInclusion": "the inclusion invariant; " +
		"cpu's integrity test checks it after runs, so it cannot move into cache's tests",
	"baryon/internal/cache.Hierarchy.Flush": "writes every dirty line back so the controller holds the functional image; " +
		"cpu's integrity test reads memory back after it",
	"baryon/internal/cpu.Runner.Stepper": "steps a run window by window; " +
		"the root allocation gate (allocs_test.go) and benchmarks measure the hot path through it",
	"baryon/internal/cpu.Stepper.Window":   "one measured window of the allocation gate; same reason as Runner.Stepper",
	"baryon/internal/cpu.Stepper.Accesses": "how far the allocation gate's run has come; same reason as Runner.Stepper",
	"baryon/internal/hybrid.Controller.PeekLine": "the cross-design read-back oracle: " +
		"tests in cpu, core and baselines check every design's functional image through it",
	"baryon/internal/service.deadlineWriter.Unwrap": "net/http's ResponseController finds the ResponseWriter it wraps " +
		"through an interface declared inside a function, which the scan cannot see",
}

// benchOnlyExports names exports under internal/ whose only non-test
// caller is the end-to-end benchmark module (bench/), each with its reason.
// The benchmark's files stay unchanged between benchmark re-records, so
// these wait for the next one; once bench/ stops calling an entry the test
// fails and the export goes.
var benchOnlyExports = map[string]string{
	"baryon/internal/cpu.DeviceProvider": "bench's timed controller wrapper (bench/traced.go) forwards " +
		"FastDevice and SlowDevice through it; no controller implements it",
	"baryon/internal/cpu.DeviceProvider.FastDevice": "same reason as DeviceProvider",
	"baryon/internal/cpu.DeviceProvider.SlowDevice": "same reason as DeviceProvider",
	"baryon/internal/hybrid.EngineProvider": "bench's timed controller wrapper (bench/traced.go) " +
		"reaches the wrapped controller's Engine through it",
	"baryon/internal/hybrid.EngineProvider.Engine": "same reason as EngineProvider",
	"baryon/internal/service.Service.Run": "bench's serve workloads run jobs in process through it; " +
		"the HTTP API resolves first and calls RunResolved",
	"baryon/internal/service.Service.Cache": "bench's traced serve workload times the result store's Get and Put " +
		"through it (bench/traced.go)",
}

// TestInternalExportsHaveCallers keeps the production API to what
// production calls. It type-checks every non-test package of the root
// module and of bench/ and fails on any exported top-level name, method or
// interface method declared in a non-test file under internal/ that no
// non-test code uses (see scanExports for what counts as a use), unless
// exportAllowlist names it, and on any export whose only non-test use is
// in bench/, unless benchOnlyExports names it. Code that only tests need
// belongs in a _test.go file of its package.
func TestInternalExportsHaveCallers(t *testing.T) {
	root := goList(t, ".", "./...")
	bench := goList(t, "bench", "./...")
	std := map[string]string{}
	var pkgs []apiPackage
	seen := map[string]bool{}
	fset := token.NewFileSet()
	for _, p := range append(root, bench...) {
		if p.Standard {
			std[p.ImportPath] = p.Export
			continue
		}
		if seen[p.ImportPath] || len(p.GoFiles) == 0 {
			continue
		}
		seen[p.ImportPath] = true
		ap := apiPackage{path: p.ImportPath}
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			ap.files = append(ap.files, f)
		}
		pkgs = append(pkgs, ap)
	}
	exports, err := scanExports(fset, std, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range checkExports(exports, exportAllowlist, benchOnlyExports) {
		t.Error(msg)
	}
}

// listedPackage is the part of `go list -json` output the scan reads.
type listedPackage struct {
	ImportPath, Dir, Export string
	GoFiles                 []string
	Standard                bool
}

// goList runs `go list -export -deps -json` on patterns in dir and returns
// the packages in dependency order, each after everything it imports.
//
// The export data must come from the toolchain that built this test, whose
// go/importer reads it. `go test` puts its own GOROOT/bin first on PATH, so
// `go` is that toolchain; a test binary run some other way is checked here.
func goList(t *testing.T, dir string, patterns ...string) []listedPackage {
	t.Helper()
	if v, err := exec.Command("go", "env", "GOVERSION").Output(); err != nil {
		t.Fatalf("go env GOVERSION: %v", err)
	} else if got := strings.TrimSpace(string(v)); got != runtime.Version() {
		t.Fatalf("go on PATH is %s but this test was built by %s; run it with `go test`", got, runtime.Version())
	}
	var stderr bytes.Buffer
	cmd := exec.Command("go", append([]string{"list", "-export", "-deps", "-json"}, patterns...)...)
	cmd.Dir = dir
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
}

// apiPackage is one module package for scanExports: its import path and
// its parsed files.
type apiPackage struct {
	path  string
	files []*ast.File
}

// export is one exported name declared under internal/ and where its
// non-test uses are.
type export struct {
	pos           token.Position
	module, bench bool // used outside bench/; used in bench/
}

// internalPath and benchPath tell which packages declare the checked
// exports and which ones are the benchmark module.
func internalPath(path string) bool { return strings.HasPrefix(path, "baryon/internal/") }
func benchPath(path string) bool {
	return path == "baryon/bench" || strings.HasPrefix(path, "baryon/bench/")
}

func isTestPos(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// scanExports type-checks pkgs, given in dependency order, against the
// standard library's export data in std (import path -> file) and returns
// every exported top-level name, method and interface method that a
// non-test file under internal/ declares, keyed as in exportAllowlist.
//
// Only files not named *_test.go count. An export is used where a selector
// or identifier resolves to it outside its own declaration and outside a
// method receiver. A method or interface method is also used when a named
// type T, or *T, of the module implements an interface that declares a
// method of that name: a named interface of any package in std, the error
// interface, or an interface type written in module code. The method then
// counts as used from the module (or from bench/, when only bench/ writes
// that interface). This over-approximates: every String method passes
// through fmt.Stringer. An interface whose method a type gets by embedding
// it, or by being it, does not count.
func scanExports(fset *token.FileSet, std map[string]string, pkgs []apiPackage) (map[string]*export, error) {
	stdImp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if file, ok := std[path]; ok && file != "" {
			return os.Open(file)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
	// Module packages are checked from source and imported as checked, so
	// each type has one object and types.Implements compares like with like.
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return stdImp.Import(path)
	})

	exports := map[string]*export{}
	byObj := map[types.Object]*export{}
	declare := func(key string, obj types.Object) {
		e := &export{pos: fset.Position(obj.Pos())}
		exports[key] = e
		byObj[obj] = e
	}
	ifaces := map[string]*iface{} // by type string
	addIface := func(t types.Type, bench bool) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || it.NumMethods() == 0 || !it.IsMethodSet() {
			return
		}
		key := types.TypeString(t, nil)
		if old, ok := ifaces[key]; ok {
			old.bench = old.bench && bench
			return
		}
		ifaces[key] = &iface{it: it, bench: bench}
	}
	var named []*types.Named // the module's types, for interface satisfaction

	for _, p := range pkgs {
		info := &types.Info{
			Types:     map[ast.Expr]types.TypeAndValue{},
			Defs:      map[*ast.Ident]types.Object{},
			Uses:      map[*ast.Ident]types.Object{},
			Instances: map[*ast.Ident]types.Instance{},
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p.path, fset, p.files, info)
		if err != nil {
			return nil, err
		}
		checked[p.path] = pkg
		bench := benchPath(p.path)

		// Declarations: where each object's own declaration spans, so a
		// recursive call or a self-referencing type is not a use.
		decl := map[types.Object]ast.Node{}
		recv := map[*ast.Ident]bool{}
		for _, f := range p.files {
			if isTestPos(fset, f.Pos()) {
				continue
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					decl[info.Defs[d.Name]] = d
					if d.Recv != nil {
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								recv[id] = true
							}
							return true
						})
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							decl[info.Defs[s.Name]] = s
						case *ast.ValueSpec:
							for _, n := range s.Names {
								decl[info.Defs[n]] = s
							}
						}
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					addIface(info.TypeOf(it), bench)
				}
				return true
			})
		}
		for id, obj := range info.Defs {
			if tn, ok := obj.(*types.TypeName); ok && !isTestPos(fset, id.Pos()) {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
					named = append(named, n)
				}
			}
		}
		for _, inst := range info.Instances {
			if n, ok := inst.Type.(*types.Named); ok {
				named = append(named, n)
			}
		}

		if internalPath(p.path) {
			scope := pkg.Scope()
			for _, name := range scope.Names() {
				obj := scope.Lookup(name)
				if !isTestPos(fset, obj.Pos()) {
					if obj.Exported() {
						declare(p.path+"."+name, obj)
					}
					tn, ok := obj.(*types.TypeName)
					if !ok || tn.IsAlias() {
						continue
					}
					n := tn.Type().(*types.Named)
					if it, ok := n.Underlying().(*types.Interface); ok {
						for i := 0; i < it.NumExplicitMethods(); i++ {
							if m := it.ExplicitMethod(i); m.Exported() {
								declare(p.path+"."+name+"."+m.Name(), m)
							}
						}
					}
					for i := 0; i < n.NumMethods(); i++ {
						m := n.Method(i)
						if m.Exported() && !isTestPos(fset, m.Pos()) {
							declare(p.path+"."+name+"."+m.Name(), m)
						}
					}
				}
			}
		}

		for id, obj := range info.Uses {
			if recv[id] || isTestPos(fset, id.Pos()) {
				continue
			}
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			e := byObj[obj]
			if e == nil {
				continue
			}
			if d := decl[obj]; d != nil && d.Pos() <= id.Pos() && id.Pos() < d.End() {
				continue
			}
			if bench {
				e.bench = true
			} else {
				e.module = true
			}
		}
	}

	// Interfaces of the standard library, and the error interface.
	addIface(types.Universe.Lookup("error").Type(), false)
	for path := range std {
		if path == "unsafe" {
			continue
		}
		pkg, err := stdImp.Import(path)
		if err != nil {
			return nil, err
		}
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); !ok || n.TypeParams().Len() == 0 {
					addIface(tn.Type(), false)
				}
			}
		}
	}
	for _, n := range named {
		markImplemented(n, ifaces, byObj)
	}
	return exports, nil
}

// iface is one interface for scanExports, and whether only bench/ writes it.
type iface struct {
	it    *types.Interface
	bench bool
}

// markImplemented marks, for each interface n or *n implements, the methods
// that n has for that interface's methods.
func markImplemented(n *types.Named, ifaces map[string]*iface, byObj map[types.Object]*export) {
	var v types.Type = n
	if !types.IsInterface(n) {
		v = types.NewPointer(n)
	}
	ms := types.NewMethodSet(v)
	if ms.Len() == 0 {
		return
	}
	has := map[string]bool{}
	for i := 0; i < ms.Len(); i++ {
		has[ms.At(i).Obj().Name()] = true
	}
	for _, in := range ifaces {
		ok := true
		for i := 0; i < in.it.NumMethods() && ok; i++ {
			ok = has[in.it.Method(i).Name()]
		}
		if !ok || !types.Implements(v, in.it) {
			continue
		}
		for i := 0; i < in.it.NumMethods(); i++ {
			want := in.it.Method(i)
			obj, _, _ := types.LookupFieldOrMethod(v, false, want.Pkg(), want.Name())
			fn, _ := obj.(*types.Func)
			if fn == nil || fn == want {
				continue
			}
			if e := byObj[fn.Origin()]; e != nil {
				if in.bench {
					e.bench = true
				} else {
					e.module = true
				}
			}
		}
	}
}

// checkExports returns one message per export that is neither used
// outside bench/ nor explained by its allowlist, and one per allowlist
// entry that no longer holds.
func checkExports(exports map[string]*export, allow, benchOnly map[string]string) []string {
	var msgs []string
	for key, e := range exports {
		_, allowed := allow[key]
		_, benched := benchOnly[key]
		switch {
		case e.module && (allowed || benched):
			msgs = append(msgs, fmt.Sprintf("%s: %s has a non-test caller outside bench/; drop its allowlist entry", e.pos, key))
		case e.module:
		case e.bench && !benched:
			msgs = append(msgs, fmt.Sprintf("%s: %s is called only from bench/; give it a benchOnlyExports entry", e.pos, key))
		case !e.bench && benched:
			msgs = append(msgs, fmt.Sprintf("%s: %s has no non-test caller, not even in bench/; delete it and its benchOnlyExports entry", e.pos, key))
		case !e.bench && !allowed:
			msgs = append(msgs, fmt.Sprintf("%s: %s is exported but no non-test code uses it; "+
				"delete it, unexport it or move it into a _test.go file", e.pos, key))
		}
	}
	for _, m := range []map[string]string{allow, benchOnly} {
		for key := range m {
			if exports[key] == nil {
				msgs = append(msgs, fmt.Sprintf("allowlist entry %s names no export under internal/", key))
			}
		}
	}
	sort.Strings(msgs)
	return msgs
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// TestExportScanControls runs scanExports and checkExports on small
// fixture packages with known answers, so a scan that passes everything
// fails here: a method only a _test.go file calls is flagged, one reached
// only through an inline interface assertion or a standard-library
// interface passes, one only bench/ calls needs a benchOnlyExports entry,
// and an interface method nobody calls through the interface is flagged
// while the methods that implement it pass.
func TestExportScanControls(t *testing.T) {
	fixtures := []struct{ path, file, src string }{
		{"baryon/internal/fix", "fix.go", `package fix

type T struct{}

func New() T { return T{} }

func (T) OnlyTests()      {}
func (T) Inline()         {}
func (T) String() string  { return "T" }
func (T) OnlyBench()      {}
func (T) Pick() int       { return 0 }
func (T) Label() string   { return "" }

type Policy interface {
	Pick() int
	Label() string
}
`},
		{"baryon/internal/fix", "fix_test.go", `package fix

func use() { New().OnlyTests() }
`},
		{"baryon/cmd/user", "user.go", `package user

import (
	"fmt"

	"baryon/internal/fix"
)

func Run(x any) {
	if v, ok := x.(interface{ Inline() }); ok {
		v.Inline()
	}
	var p fix.Policy = fix.New()
	fmt.Println(fix.New(), p.Pick())
}
`},
		{"baryon/bench/user", "user.go", `package user

import "baryon/internal/fix"

func Run() { fix.New().OnlyBench() }
`},
	}
	fset := token.NewFileSet()
	var pkgs []apiPackage
	for _, f := range fixtures {
		file, err := parser.ParseFile(fset, f.path+"/"+f.file, f.src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(pkgs); n > 0 && pkgs[n-1].path == f.path {
			pkgs[n-1].files = append(pkgs[n-1].files, file)
		} else {
			pkgs = append(pkgs, apiPackage{path: f.path, files: []*ast.File{file}})
		}
	}
	std := map[string]string{}
	for _, p := range goList(t, ".", "fmt") {
		std[p.ImportPath] = p.Export
	}
	exports, err := scanExports(fset, std, pkgs)
	if err != nil {
		t.Fatal(err)
	}

	const fix = "baryon/internal/fix."
	want := map[string][2]bool{ // key -> {module, bench}
		"T": {true, false}, "New": {true, true}, "Policy": {true, false},
		"T.OnlyTests": {false, false}, "T.Inline": {true, false}, "T.String": {true, false},
		"T.OnlyBench": {false, true}, "T.Pick": {true, false}, "T.Label": {true, false},
		"Policy.Pick": {true, false}, "Policy.Label": {false, false},
	}
	if len(exports) != len(want) {
		t.Errorf("scan found %d exports, want %d", len(exports), len(want))
	}
	for key, w := range want {
		e := exports[fix+key]
		if e == nil {
			t.Errorf("%s not found", key)
		} else if got := [2]bool{e.module, e.bench}; got != w {
			t.Errorf("%s: {module, bench} = %v, want %v", key, got, w)
		}
	}

	for _, tc := range []struct {
		allow, bench map[string]string
		want         []string // one substring per message
	}{
		{nil, nil, []string{"Policy.Label is exported but no non-test code", "T.OnlyBench is called only from bench/",
			"T.OnlyTests is exported but no non-test code"}},
		{map[string]string{fix + "Policy.Label": "r", fix + "T.OnlyTests": "r"},
			map[string]string{fix + "T.OnlyBench": "r"}, nil},
		{map[string]string{fix + "T.OnlyTests": "r", fix + "T.OnlyBench": "r"},
			map[string]string{fix + "T.Inline": "r", fix + "Policy.Label": "r", fix + "Gone": "r"},
			[]string{"T.Inline has a non-test caller outside bench/", "T.OnlyBench is called only from bench/",
				"Policy.Label has no non-test caller, not even in bench/", "allowlist entry " + fix + "Gone names no export"}},
	} {
		got := checkExports(exports, tc.allow, tc.bench)
		if len(got) != len(tc.want) {
			t.Errorf("checkExports(%v, %v) = %q, want %d messages", tc.allow, tc.bench, got, len(tc.want))
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(strings.Join(got, "\n"), w) {
				t.Errorf("checkExports(%v, %v) = %q, want a message with %q", tc.allow, tc.bench, got, w)
			}
		}
	}
}
