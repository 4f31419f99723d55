package baryon

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

// exportAllowlist names exported declarations under internal/ that no
// non-test file references but that stay exported on purpose, each with
// its reason. Keys are "<import path>.<Name>".
var exportAllowlist = map[string]string{
	"baryon/internal/metadata.SuperEntries": "the Section III-C prefix-sum slot decode; " +
		"core's tests check the committed layout against it, so it cannot move into metadata's tests",
}

// TestInternalExportsHaveCallers keeps the production API to what
// production calls. It parses (without type-checking) every Go file of the
// root module and of bench/, and fails on any exported top-level function,
// type, constant or variable declared in a non-test file under internal/
// that no non-test file references: bare inside its own package, or as
// pkg.Name from another package. Code that only tests need belongs in a
// _test.go file of its package. Methods are out of reach of a syntactic
// scan and are not checked.
func TestInternalExportsHaveCallers(t *testing.T) {
	var (
		fset  = token.NewFileSet()
		decls = map[string]token.Position{} // "<import path>.<Name>" -> declaration
		used  = map[string]bool{}
	)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
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
		pkg := "baryon"
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir
		}
		collectExports(fset, f, pkg, func(name string, pos token.Position) {
			if strings.HasPrefix(pkg, "baryon/internal/") {
				decls[pkg+"."+name] = pos
			}
		})
		collectRefs(f, pkg, func(key string) { used[key] = true })
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	for key, pos := range decls {
		if _, ok := exportAllowlist[key]; !ok && !used[key] {
			unused = append(unused, pos.String()+": "+key)
		}
	}
	for key := range exportAllowlist {
		if _, ok := decls[key]; !ok {
			t.Errorf("allowlist entry %s names no exported declaration", key)
		} else if used[key] {
			t.Errorf("allowlist entry %s has a non-test caller; drop it", key)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is exported but no non-test file references it; delete it, unexport it or move it into a _test.go file", u)
	}
}

// collectExports reports the exported top-level functions, types, constants
// and variables that f declares.
func collectExports(fset *token.FileSet, f *ast.File, pkg string, add func(string, token.Position)) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				add(d.Name.Name, fset.Position(d.Name.Pos()))
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						add(s.Name.Name, fset.Position(s.Name.Pos()))
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							add(n.Name, fset.Position(n.Pos()))
						}
					}
				}
			}
		}
	}
}

// collectRefs reports every package-level name f may refer to, as
// "<import path>.<Name>": pkg.Name selectors on an imported package, and
// bare identifiers resolved in f's own package. A declaration's own name,
// the receiver type of a method, selector, field and method names, and a
// function's references to itself do not count.
func collectRefs(f *ast.File, pkg string, use func(string)) {
	imports := map[string]string{} // local name -> import path
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = path
	}
	skip := map[*ast.Ident]bool{}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			skip[d.Name] = true
			if d.Recv != nil {
				for _, fld := range d.Recv.List {
					ast.Inspect(fld.Type, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							skip[id] = true
						}
						return true
					})
				}
			} else if d.Body != nil {
				self := d.Name.Name
				ast.Inspect(d.Body, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && id.Name == self {
						skip[id] = true
					}
					return true
				})
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					skip[s.Name] = true
				case *ast.ValueSpec:
					for _, n := range s.Names {
						skip[n] = true
					}
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if path, ok := imports[x.Name]; ok {
					use(path + "." + n.Sel.Name)
					return false
				}
			}
			skip[n.Sel] = true
		case *ast.Field:
			for _, id := range n.Names {
				skip[id] = true
			}
		case *ast.Ident:
			if !skip[n] {
				use(pkg + "." + n.Name)
			}
		}
		return true
	})
}
