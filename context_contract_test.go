package multival

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// backgroundAllowed lists the library functions that may create a fresh
// context, each with the reason it cannot take one from its caller.
// Every other long-running library step receives the caller's ctx, so a
// deadline or cancel reaches it.
var backgroundAllowed = map[string]string{
	"serve.(*Server).storeModel":   "publishes an already-built artifact",
	"serve.(*Server).famComponent": "publishes an already-built artifact",
	"serve.(*Queue).Close":         "drains the queue on shutdown",
	"faust.ForkSpec":               "mvbench pins the signature; at most 4 values keeps the model tiny",
	"faust.ForkImpl":               "mvbench pins the signature; at most 4 values keeps the model tiny",
	"sweep.chpFamily":              "sweep.Component.Build takes no context: mvbench pins its signature",
	"sweep.lotosFamily":            "sweep.Component.Build takes no context: mvbench pins its signature",
}

// TestNoBackgroundContextInLibraries scans the library sources (the root
// package and internal/, without tests) for context.Background() and
// context.TODO() calls outside backgroundAllowed. Commands, examples and
// tools own their contexts and are not scanned.
func TestNoBackgroundContextInLibraries(t *testing.T) {
	fset := token.NewFileSet()
	seen := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			top := strings.Split(path, string(filepath.Separator))[0]
			if path != "." && (top != "internal" || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, site := range backgroundSites(f) {
			seen[site.fn] = true
			if _, ok := backgroundAllowed[site.fn]; !ok {
				t.Errorf("%s: %s calls context.%s(); take a ctx from the caller instead",
					fset.Position(site.pos), site.fn, site.call)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for fn := range backgroundAllowed {
		if !seen[fn] {
			t.Errorf("stale allowlist entry %s: it no longer creates a context", fn)
		}
	}
}

type backgroundSite struct {
	fn, call string
	pos      token.Pos
}

// backgroundSites returns the context.Background/TODO calls of f, each
// with its enclosing top-level function ("" at package level).
func backgroundSites(f *ast.File) []backgroundSite {
	name := ""
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "context" {
			name = "context"
			if imp.Name != nil {
				name = imp.Name.Name
			}
		}
	}
	if name == "" {
		return nil
	}
	var sites []backgroundSite
	scan := func(fn string, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == name &&
				(sel.Sel.Name == "Background" || sel.Sel.Name == "TODO") {
				sites = append(sites, backgroundSite{fn: fn, call: sel.Sel.Name, pos: call.Pos()})
			}
			return true
		})
	}
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			scan(f.Name.Name+".<package level>", decl)
			continue
		}
		fn := f.Name.Name + "." + fd.Name.Name
		if fd.Recv != nil && len(fd.Recv.List) == 1 {
			fn = f.Name.Name + "." + receiverName(fd.Recv.List[0].Type) + "." + fd.Name.Name
		}
		scan(fn, fd)
	}
	return sites
}

// receiverName renders a method receiver type as "T" or "(*T)".
func receiverName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return "(*" + receiverName(e.X) + ")"
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr:
		return receiverName(e.X)
	case *ast.IndexListExpr:
		return receiverName(e.X)
	default:
		return fmt.Sprintf("%T", e)
	}
}
