package contracts

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// backgroundAllowed lists the library functions that may create a fresh
// context, each with the reason it cannot take one from its caller.
// Every other long-running library step receives the caller's ctx, so a
// deadline or cancel reaches it.
var backgroundAllowed = map[string]string{
	"serve.(*Server).storeModel":          "publishes an already-built artifact",
	"serve.(*Server).famComponent":        "publishes an already-built artifact",
	"serve.(*Queue).Close":                "drains the queue on shutdown",
	"faust.ForkSpec":                      "mvbench pins the signature; at most 4 values keeps the model tiny",
	"faust.ForkImpl":                      "mvbench pins the signature; at most 4 values keeps the model tiny",
	"multival.(*Model).Check":             "mvbench pins the signature",
	"multival.(*Model).CheckDeadlockFree": "mvbench pins the signature",
	"sweep.chpFamily":                     "sweep.Component.Build takes no context: mvbench pins its signature",
	"sweep.lotosFamily":                   "sweep.Component.Build takes no context: mvbench pins its signature",
}

// TestNoBackgroundContextInLibraries scans the library sources (the root
// package and internal/, without tests) for context.Background() and
// context.TODO() calls outside backgroundAllowed. Commands and examples
// own their contexts and are not scanned.
func TestNoBackgroundContextInLibraries(t *testing.T) {
	l := module(t)
	paths, err := l.packages()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, path := range paths {
		if path != "multival" && !strings.HasPrefix(path, "multival/internal/") {
			continue
		}
		u, err := l.main.unit(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range u.files {
			for _, site := range backgroundSites(f, u.info) {
				seen[site.fn] = true
				if _, ok := backgroundAllowed[site.fn]; !ok {
					t.Errorf("%s: %s calls context.%s(); take a ctx from the caller instead",
						l.position(site.pos), site.fn, site.call)
				}
			}
		}
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
func backgroundSites(f *ast.File, info *types.Info) []backgroundSite {
	var sites []backgroundSite
	scan := func(fn string, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				for _, name := range []string{"Background", "TODO"} {
					if isPkgFunc(info, call, "context", name) {
						sites = append(sites, backgroundSite{fn: fn, call: name, pos: call.Pos()})
					}
				}
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
