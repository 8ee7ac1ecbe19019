package contracts

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// maporder enforces the engine's byte-determinism contract at
// map-iteration sites: artifact keys (lts.LTS.Hash), sweep journals,
// the Prometheus exposition and every serialized wire format must be
// byte-identical across runs and worker counts.
//
// Go map iteration order is deliberately randomized, so a range over a
// map whose body writes to a hasher/writer/encoder, emits
// engine.Progress, or appends to a slice that is not sorted in the
// statements following the loop produces output that varies run to run.
// Collect keys, sort them, and iterate the sorted slice instead. Test
// files are exempt.
func maporder(fset *token.FileSet, files []*ast.File, _ *types.Package, info *types.Info, report reportFunc) {
	for _, file := range files {
		if inTestFile(fset, file.Pos()) {
			continue
		}
		// Walk with enough context to find the block containing each
		// range statement, so "append then sort after the loop" is
		// recognized as the sanctioned pattern.
		var walkBlock func(list []ast.Stmt)
		inspect := func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BlockStmt:
				walkBlock(n.List)
				return false
			case *ast.CaseClause:
				walkBlock(n.Body)
				return false
			case *ast.CommClause:
				walkBlock(n.Body)
				return false
			}
			return true
		}
		walkBlock = func(list []ast.Stmt) {
			for i, stmt := range list {
				if rs, ok := stmt.(*ast.RangeStmt); ok && isMapRange(info, rs) {
					checkMapRange(info, report, rs, list[i+1:])
				}
				ast.Inspect(stmt, inspect)
			}
		}
		ast.Inspect(file, inspect)
	}
}

func isMapRange(info *types.Info, rs *ast.RangeStmt) bool {
	t := info.TypeOf(rs.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// checkMapRange inspects one map-range body for order-sensitive sinks.
// rest holds the statements following the loop in its enclosing block,
// consulted to bless the collect-then-sort idiom.
func checkMapRange(info *types.Info, report reportFunc, rs *ast.RangeStmt, rest []ast.Stmt) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			// A nested map range is reported on its own; its body's
			// sinks belong to it, not to the outer loop.
			if n != rs && isMapRange(info, n) {
				return false
			}
		case *ast.AssignStmt:
			checkAppend(info, report, rs, n, rest)
		case *ast.CallExpr:
			checkCallSink(info, report, rs, n)
		}
		return true
	})
}

// checkAppend flags `outer = append(outer, ...)` bodies whose target is
// declared outside the loop and is not sorted by any statement after it.
func checkAppend(info *types.Info, report reportFunc, rs *ast.RangeStmt, as *ast.AssignStmt, rest []ast.Stmt) {
	for _, rhs := range as.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || len(call.Args) == 0 || !isBuiltinCall(info, call, "append") {
			continue
		}
		base := baseIdent(call.Args[0])
		if base == nil {
			continue
		}
		obj := info.ObjectOf(base)
		if obj == nil || declaredWithin(obj, rs) {
			continue // loop-local accumulation is per-iteration state
		}
		if sortedAfter(info, obj, rest) {
			continue
		}
		report(rs.Pos(),
			"map iteration appends to %q without sorting it afterwards; order is randomized — sort %s after the loop or iterate sorted keys",
			base.Name, base.Name)
		return // one report per loop for this sink class
	}
}

// sink method names that serialize their argument in call order.
var writeMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Encode": true, "EncodeElement": true,
}

func checkCallSink(info *types.Info, report reportFunc, rs *ast.RangeStmt, call *ast.CallExpr) {
	// fmt.Fprint*/binary.Write style: package-level serializers whose
	// first argument is the destination stream.
	if fn := calleeFunc(info, call); fn != nil && fn.Pkg() != nil {
		pkg, name := fn.Pkg().Path(), fn.Name()
		if (pkg == "fmt" && strings.HasPrefix(name, "Fprint")) ||
			(pkg == "encoding/binary" && name == "Write") {
			if len(call.Args) > 0 && outerReceiver(info, rs, call.Args[0]) {
				report(rs.Pos(),
					"map iteration writes to %s via %s.%s; order is randomized — iterate sorted keys",
					exprString(call.Args[0]), pkg, name)
			}
			return
		}
	}

	// Direct call of an engine.ProgressFunc value: `progress(p)`.
	if isProgressFunc(info.TypeOf(call.Fun)) {
		report(rs.Pos(), "map iteration emits Progress; report once per round, not per map entry")
		return
	}

	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}

	// Progress emission: calling an engine.ProgressFunc value or its
	// Report method inside a map range makes observer streams
	// (SSE relays, CLI printers) nondeterministic.
	if sel.Sel.Name == "Report" && isProgressFunc(info.TypeOf(sel.X)) {
		report(rs.Pos(), "map iteration emits Progress; report once per round, not per map entry")
		return
	}

	// Writer/hasher/encoder method on a receiver living outside the
	// loop: bytes.Buffer, strings.Builder, hash.Hash, json.Encoder, …
	if writeMethods[sel.Sel.Name] && methodSinks(info, sel) && outerReceiver(info, rs, sel.X) {
		report(rs.Pos(),
			"map iteration calls %s.%s on a hasher/writer declared outside the loop; order is randomized — iterate sorted keys",
			exprString(sel.X), sel.Sel.Name)
	}
}

func isProgressFunc(t types.Type) bool {
	return t != nil && isNamedType(t, "multival/internal/engine", "ProgressFunc")
}

// methodSinks reports whether the selector's receiver type is an
// order-sensitive byte sink: structurally an io.Writer, or an encoder
// (method named Encode*).
func methodSinks(info *types.Info, sel *ast.SelectorExpr) bool {
	t := info.TypeOf(sel.X)
	if t == nil {
		return false
	}
	if strings.HasPrefix(sel.Sel.Name, "Encode") {
		return true
	}
	return implementsWriter(t)
}

// outerReceiver reports whether the base identifier of e resolves to an
// object declared outside the range statement (per-iteration buffers are
// deterministic for their own entry).
func outerReceiver(info *types.Info, rs *ast.RangeStmt, e ast.Expr) bool {
	base := baseIdent(e)
	if base == nil {
		return true // conservative: unknown receivers count as outer
	}
	obj := info.ObjectOf(base)
	if obj == nil {
		return false
	}
	return !declaredWithin(obj, rs)
}

func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func declaredWithin(obj types.Object, rs *ast.RangeStmt) bool {
	return obj.Pos() >= rs.Pos() && obj.Pos() <= rs.End()
}

// sortedAfter reports whether any statement after the loop calls a sort
// over obj: a sort/slices package function, or any function whose name
// mentions "sort", receiving the slice (possibly wrapped: sort.Sort(byX(v))).
func sortedAfter(info *types.Info, obj types.Object, rest []ast.Stmt) bool {
	for _, stmt := range rest {
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isSortCall(info, call) {
				return true
			}
			for _, arg := range call.Args {
				ast.Inspect(arg, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok && info.ObjectOf(id) == obj {
						found = true
					}
					return !found
				})
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	if fn.Pkg() != nil {
		if p := fn.Pkg().Path(); p == "sort" || p == "slices" {
			return true
		}
	}
	return strings.Contains(strings.ToLower(fn.Name()), "sort")
}

func exprString(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	default:
		return "stream"
	}
}
