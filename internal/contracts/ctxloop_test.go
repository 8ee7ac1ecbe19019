package contracts

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ctxloop pins the cancellation contract of the public API: every
// exported long-running operation takes a context.Context and observes
// it at round boundaries (generation worklists, refinement rounds,
// solver sweeps, queue drains).
//
// An exported function that accepts a context.Context promises callers
// a cancellable operation. A loop with no trip-count bound — "for { ... }",
// "for cond { ... }" with no init/post, or a channel range — that neither
// checks ctx.Err()/ctx.Done() (directly or via a channel saved from
// ctx.Done()) nor calls a function that receives the context keeps
// running after the caller gave up, holding queue slots and workers.
// Check engine.Canceled(ctx) at the loop head or pass ctx into the loop
// body's calls. Test files are exempt.
func ctxloop(fset *token.FileSet, files []*ast.File, _ *types.Package, info *types.Info, report reportFunc) {
	for _, file := range files {
		if inTestFile(fset, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() || !hasContextParam(info, fd) {
				continue
			}
			doneChans := doneChannels(info, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if loop := unboundedLoop(info, n); loop != nil && !observesCtx(info, loop, doneChans) {
					report(loop.Pos(),
						"unbounded loop in exported %s does not observe ctx: check ctx.Err()/engine.Canceled(ctx) per iteration or pass ctx to a callee",
						fd.Name.Name)
				}
				return true
			})
		}
	}
}

// hasContextParam reports whether fd takes a context.Context parameter.
func hasContextParam(info *types.Info, fd *ast.FuncDecl) bool {
	for _, field := range fd.Type.Params.List {
		if isContext(info.TypeOf(field.Type)) {
			return true
		}
	}
	return false
}

// doneChannels collects variables assigned from a ctx.Done() call
// anywhere in the body, so `done := ctx.Done(); for { select { case
// <-done: ... } }` is recognized.
func doneChannels(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			if !isCtxMethodCall(info, rhs, "Done") {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := info.ObjectOf(id); obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// unboundedLoop returns n as a loop node when it has no syntactic trip
// bound: `for {}`, `for cond {}` without init/post, or a range over a
// channel.
func unboundedLoop(info *types.Info, n ast.Node) ast.Stmt {
	switch l := n.(type) {
	case *ast.ForStmt:
		if l.Cond == nil || (l.Init == nil && l.Post == nil) {
			return l
		}
	case *ast.RangeStmt:
		if t := info.TypeOf(l.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				return l
			}
		}
	}
	return nil
}

// observesCtx reports whether the loop subtree consults a context:
// ctx.Err()/ctx.Done() calls, receives from a saved Done channel, or any
// call passing a context.Context argument (the callee inherits the
// obligation).
func observesCtx(info *types.Info, loop ast.Stmt, doneChans map[types.Object]bool) bool {
	found := false
	ast.Inspect(loop, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if isCtxMethodCall(info, n, "Err") || isCtxMethodCall(info, n, "Done") {
				found = true
				return false
			}
			for _, arg := range n.Args {
				if isContext(info.TypeOf(arg)) {
					found = true
					return false
				}
			}
		case *ast.UnaryExpr:
			// <-done where done was saved from ctx.Done().
			if id, ok := ast.Unparen(n.X).(*ast.Ident); ok && doneChans[info.ObjectOf(id)] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isCtxMethodCall reports whether e is a call of <ctx>.<method>() on a
// context.Context-typed receiver.
func isCtxMethodCall(info *types.Info, e ast.Expr, method string) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return false
	}
	return isContext(info.TypeOf(sel.X))
}
