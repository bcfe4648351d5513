package extract

// The dead-export gate. TestNoDeadExports lists the exported functions,
// methods and types declared in internal/ that no non-test Go file of the
// repository names outside their own declaration — cmd/, examples/,
// benchmark/ and internal/bench count as callers — and compares the list
// with testdata/exports.allow, which names each export kept on purpose and
// says why. A new dead export fails the test, and so does an allowlist entry
// that is used again or gone.
//
// The scan is by name: an identifier counts as a use of every export so
// named. So a dead export whose name a live one shares is missed, but a live
// export is never reported.

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// interfaceMethods are method names the standard library's interfaces call
// (error, fmt.Stringer, sort.Interface, io, http.Handler, json, heap):
// a type implements them for a caller that never names them.
var interfaceMethods = map[string]bool{
	"Error": true, "Unwrap": true, "Is": true, "As": true, "Timeout": true, "Temporary": true,
	"String": true, "GoString": true, "Format": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "Seek": true, "ReadAt": true, "WriteTo": true, "ReadFrom": true,
	"ServeHTTP": true, "MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
}

func TestNoDeadExports(t *testing.T) {
	dead := deadExports(t, ".")
	allowed := readAllowlist(t, filepath.Join("testdata", "exports.allow"))
	for _, name := range dead {
		if _, ok := allowed[name]; !ok {
			t.Errorf("%s is exported from internal/ but no non-test code names it: delete it, or list it in testdata/exports.allow with the reason it stays", name)
		}
	}
	for name := range allowed {
		if !slices.Contains(dead, name) {
			t.Errorf("testdata/exports.allow lists %s, which is named by non-test code or no longer declared: drop the entry", name)
		}
	}
}

// deadExports parses every non-test Go file under root and returns, sorted,
// the exports of internal/ that nothing names, as "pkg.Name" for a function
// or type and "pkg.Type.Method" for a method.
func deadExports(t *testing.T, root string) []string {
	t.Helper()
	type decl struct {
		name  string // the identifier
		label string // pkg.Name or pkg.Type.Method
	}
	var decls []decl
	declared := map[*ast.Ident]bool{}
	var files []*ast.File
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		rel := filepath.ToSlash(path)
		internal := strings.HasPrefix(rel, "internal/")
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				declared[d.Name] = true
				if !internal || !d.Name.IsExported() {
					continue
				}
				label := f.Name.Name + "." + d.Name.Name
				if d.Recv != nil {
					if interfaceMethods[d.Name.Name] {
						continue
					}
					label = f.Name.Name + "." + receiver(d.Recv.List[0].Type) + "." + d.Name.Name
				}
				decls = append(decls, decl{d.Name.Name, label})
			case *ast.GenDecl:
				for _, s := range d.Specs {
					ts, ok := s.(*ast.TypeSpec)
					if !ok {
						continue
					}
					declared[ts.Name] = true
					if internal && ts.Name.IsExported() {
						decls = append(decls, decl{ts.Name.Name, f.Name.Name + "." + ts.Name.Name})
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
	}
	var dead []string
	for _, d := range decls {
		if !used[d.name] {
			dead = append(dead, d.label)
		}
	}
	slices.Sort(dead)
	return slices.Compact(dead)
}

// receiver returns the type name of a method's receiver: T of T, *T, T[P]
// or *T[P].
func receiver(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// readAllowlist reads "name reason" lines; blank lines and lines starting
// with # are skipped. Every entry must carry a reason.
func readAllowlist(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		name, reason, _ := strings.Cut(text, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s:%d: %s has no reason", path, line, name)
		}
		if _, dup := out[name]; dup {
			t.Errorf("%s:%d: %s is listed twice", path, line, name)
		}
		out[name] = strings.TrimSpace(reason)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
