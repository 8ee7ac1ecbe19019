package contracts

import (
	"go/ast"
	"go/token"
	"go/types"
)

// viewMethods maps owning package path -> type name -> accessor methods
// returning backing slices.
var viewMethods = map[string]map[string]map[string]bool{
	"multival/internal/lts": {
		"LTS": {"Out": true, "In": true, "Succ": true},
	},
	"multival/internal/sparse": {
		"Matrix": {"Row": true, "RowTags": true},
	},
}

// frozenmut pins the immutability contract of the CSR cores.
// lts.LTS and sparse.Matrix accessors (Out/In/Succ, Row/RowTags) hand
// out the backing arrays of their CSR index themselves — not copies —
// because the hot algorithms scan them in place. The artifact cache
// content-addresses models by hashing the LTS's Out rows (lts.LTS.Hash),
// and concurrent readers share one index, so a single write through a
// returned slice silently corrupts every cached artifact derived from the
// model.
//
// Writing an element, copying into a view, sorting it or appending to it
// mutates the published index. Take a copy first:
// append([]int32(nil), view...). The owning packages
// (multival/internal/lts, multival/internal/sparse) are exempt — they
// build the arrays before publication.
func frozenmut(_ *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, report reportFunc) {
	if _, owner := viewMethods[pkg.Path()]; owner {
		return
	}
	for _, file := range files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkViews(info, report, fd.Body)
			}
		}
	}
}

// checkViews tracks, with simple top-down dataflow, which local
// variables alias a CSR backing slice, then flags mutations through them.
func checkViews(info *types.Info, report reportFunc, body *ast.BlockStmt) {
	views := map[types.Object]string{} // object -> "LTS.Out" provenance

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// Propagate view-ness: v := f.Out(s) (tuple), v2 := v,
			// v2 := v[1:], and flag writes: v[i] = x.
			recordViews(info, views, n)
			for _, lhs := range n.Lhs {
				if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					if src, ok := viewExprSource(info, views, ix.X); ok {
						report(lhs.Pos(),
							"write into CSR backing slice returned by %s; the index is immutable and hash-addressed — copy it first (append([]T(nil), v...))", src)
					}
				}
			}
		case *ast.CallExpr:
			checkMutatingCall(info, report, views, n)
		}
		return true
	})
}

// viewCall recognizes a direct accessor call returning backing slices.
func viewCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	t := info.TypeOf(sel.X)
	if t == nil {
		return "", false
	}
	for pkgPath, typesMap := range viewMethods {
		for typeName, methods := range typesMap {
			if methods[sel.Sel.Name] && isNamedType(t, pkgPath, typeName) {
				return typeName + "." + sel.Sel.Name, true
			}
		}
	}
	return "", false
}

// viewExprSource resolves an expression to a known view's provenance.
func viewExprSource(info *types.Info, views map[types.Object]string, e ast.Expr) (string, bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if src, ok := views[info.ObjectOf(x)]; ok {
			return src, true
		}
	case *ast.CallExpr:
		return viewCall(info, x)
	case *ast.SliceExpr:
		return viewExprSource(info, views, x.X)
	}
	return "", false
}

// recordViews propagates provenance through assignments.
func recordViews(info *types.Info, views map[types.Object]string, as *ast.AssignStmt) {
	// Tuple form: labels, dsts := f.Out(s) — every LHS is a view.
	if len(as.Rhs) == 1 {
		if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
			if src, ok := viewCall(info, call); ok {
				for _, lhs := range as.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
						if obj := info.ObjectOf(id); obj != nil {
							views[obj] = src
						}
					}
				}
				return
			}
		}
	}
	// Element-wise: v2 := v, v2 := v[1:].
	if len(as.Lhs) == len(as.Rhs) {
		for i, rhs := range as.Rhs {
			src, ok := viewExprSource(info, views, rhs)
			if !ok {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
				if obj := info.ObjectOf(id); obj != nil {
					views[obj] = src
				}
			}
		}
	}
}

// checkMutatingCall flags copy(view, …), append(view, …) and sort calls
// over views.
func checkMutatingCall(info *types.Info, report reportFunc, views map[types.Object]string, call *ast.CallExpr) {
	if isBuiltinCall(info, call, "copy") {
		if len(call.Args) == 2 {
			if src, ok := viewExprSource(info, views, call.Args[0]); ok {
				report(call.Pos(), "copy into CSR backing slice returned by %s; the index is immutable — copy it first", src)
			}
		}
		return
	}
	if isBuiltinCall(info, call, "append") {
		if len(call.Args) > 0 {
			if src, ok := viewExprSource(info, views, call.Args[0]); ok {
				report(call.Pos(), "append to CSR backing slice returned by %s may write in place; clone with append([]T(nil), v...) instead", src)
			}
		}
		return
	}
	// sort.*/slices.Sort* over a view reorders the index arrays.
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
		return
	}
	for _, arg := range call.Args {
		if src, ok := viewExprSource(info, views, arg); ok {
			report(call.Pos(), "sorting CSR backing slice returned by %s reorders the index arrays; sort a copy", src)
			return
		}
	}
}
