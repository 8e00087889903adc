package flp_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestPublicAPIPinned compares the root package's exported identifiers
// with testdata/api.txt, one name a line, sorted. An export added or
// removed shows up here as a diff; edit the file by hand to accept it.
func TestPublicAPIPinned(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var got []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					got = append(got, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							got = append(got, s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if id.IsExported() {
								got = append(got, id.Name)
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(got)

	raw, err := os.ReadFile(filepath.Join("testdata", "api.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Fields(string(raw))
	have := map[string]bool{}
	for _, id := range got {
		have[id] = true
	}
	pinned := map[string]bool{}
	for _, id := range want {
		pinned[id] = true
		if !have[id] {
			t.Errorf("pinned export %s is gone", id)
		}
	}
	for _, id := range got {
		if !pinned[id] {
			t.Errorf("export %s is not in testdata/api.txt", id)
		}
	}
	if !sort.StringsAreSorted(want) || len(want) != len(got) {
		t.Errorf("testdata/api.txt must list the %d exports once each, sorted", len(got))
	}
}
