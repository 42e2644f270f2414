package roadknn_test

// The public API golden: every exported declaration of package roadknn's
// non-test files — name, kind, and signature or aliased type — sorted and
// pinned in testdata/api.golden, so that removing or changing exported API is
// always a deliberate, reviewed diff. Regenerate only with a deliberate API
// change (go test -run TestPublicAPI -update-api .).

import (
	"bytes"
	"flag"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateAPI = flag.Bool("update-api", false, "rewrite testdata/api.golden from the current code")

// publicAPI lists the exported declarations of the package in dir, one
// "name<TAB>kind<TAB>detail" line each, sorted.
func publicAPI(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	expr := func(n ast.Node) string {
		var b bytes.Buffer
		if err := printer.Fprint(&b, fset, n); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	// sig prints a function type with parameter and result names dropped:
	// renaming a parameter is not an API change.
	sig := func(ft *ast.FuncType) string {
		types := func(fl *ast.FieldList) []string {
			var out []string
			for _, f := range fl.List {
				for range max(1, len(f.Names)) {
					out = append(out, expr(f.Type))
				}
			}
			return out
		}
		s := "func(" + strings.Join(types(ft.Params), ", ") + ")"
		if ft.Results != nil {
			if res := types(ft.Results); len(res) == 1 {
				s += " " + res[0]
			} else {
				s += " (" + strings.Join(res, ", ") + ")"
			}
		}
		return s
	}
	var api []string
	add := func(name, kind, detail string) { api = append(api, name+"\t"+kind+"\t"+detail) }
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					add(d.Name.Name, "func", sig(d.Type))
					continue
				}
				recv := d.Recv.List[0].Type
				base := recv
				if star, ok := base.(*ast.StarExpr); ok {
					base = star.X
				}
				if id, ok := base.(*ast.Ident); ok && id.IsExported() {
					add(id.Name+"."+d.Name.Name, "method", "("+expr(recv)+") "+sig(d.Type))
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if !s.Name.IsExported() {
							continue
						}
						if s.Assign.IsValid() {
							add(s.Name.Name, "alias", expr(s.Type))
							continue
						}
						switch ty := s.Type.(type) {
						case *ast.StructType:
							add(s.Name.Name, "type", "struct")
							for _, fld := range ty.Fields.List {
								for _, n := range fld.Names {
									if n.IsExported() {
										add(s.Name.Name+"."+n.Name, "field", expr(fld.Type))
									}
								}
							}
						case *ast.InterfaceType:
							add(s.Name.Name, "type", "interface")
							for _, m := range ty.Methods.List {
								for _, n := range m.Names {
									add(s.Name.Name+"."+n.Name, "method", sig(m.Type.(*ast.FuncType)))
								}
							}
						default:
							add(s.Name.Name, "type", expr(s.Type))
						}
					case *ast.ValueSpec:
						kind := d.Tok.String()
						for i, n := range s.Names {
							if !n.IsExported() {
								continue
							}
							detail := ""
							switch {
							case s.Type != nil:
								detail = expr(s.Type)
							case i < len(s.Values):
								detail = "= " + expr(s.Values[i])
							}
							add(n.Name, kind, detail)
						}
					}
				}
			}
		}
	}
	sort.Strings(api)
	return api
}

func TestPublicAPI(t *testing.T) {
	got := []byte(strings.Join(publicAPI(t, "."), "\n") + "\n")
	path := filepath.Join("testdata", "api.golden")
	if *updateAPI {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	have := map[string]bool{}
	for _, l := range strings.Split(string(want), "\n") {
		have[l] = true
	}
	now := map[string]bool{}
	for _, l := range strings.Split(string(got), "\n") {
		now[l] = true
		if !have[l] {
			t.Errorf("added:   %s", l)
		}
	}
	for _, l := range strings.Split(string(want), "\n") {
		if !now[l] {
			t.Errorf("removed: %s", l)
		}
	}
	t.Fatal("exported API differs from testdata/api.golden (deliberate? go test -run TestPublicAPI -update-api .)")
}
