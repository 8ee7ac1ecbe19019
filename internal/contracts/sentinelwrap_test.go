package contracts

import (
	"go/ast"
	"go/token"
	"go/types"
)

// sentinelwrap pins the error-taxonomy contract: every failure crossing
// the internal/engine sentinel boundary is classified with errors.Is —
// the serve layer maps sentinels to HTTP statuses and the retry policy
// splits transient from permanent on the same predicate.
//
// An error argument formatted by fmt.Errorf without a matching %w verb
// loses its chain: errors.Is(err, sentinel) stops seeing through it.
// Likewise errors.New inside a function body creates an error no
// sentinel matches — declare a package-level sentinel (so callers can
// errors.Is it) or wrap an existing one. Package-level
// `var Err… = errors.New(…)` declarations are the sanctioned sentinel
// idiom and are exempt, as are test files.
func sentinelwrap(fset *token.FileSet, files []*ast.File, _ *types.Package, info *types.Info, report reportFunc) {
	for _, file := range files {
		if inTestFile(fset, file.Pos()) {
			continue
		}
		// Only walk function bodies: package-level var initializers are
		// exactly where sentinels are declared.
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch {
				case isPkgFunc(info, call, "fmt", "Errorf"):
					checkErrorf(info, report, call)
				case isPkgFunc(info, call, "errors", "New"):
					report(call.Pos(),
						"in-function errors.New creates an error no sentinel matches; declare a package-level sentinel or wrap one with fmt.Errorf(\"...: %%w\", err)")
				}
				return true
			})
		}
	}
}

// checkErrorf flags error-typed arguments beyond the format string's %w
// capacity.
func checkErrorf(info *types.Info, report reportFunc, call *ast.CallExpr) {
	if len(call.Args) < 2 {
		return
	}
	format, ok := constString(info, call.Args[0])
	if !ok {
		return // dynamic format: nothing to prove
	}
	wraps := countWrapVerbs(format)
	errArgs := 0
	for _, arg := range call.Args[1:] {
		if isErrorType(info.TypeOf(arg)) {
			errArgs++
		}
	}
	if errArgs > wraps {
		report(call.Pos(),
			"fmt.Errorf formats an error without %%w (%d error argument(s), %d %%w verb(s)); errors.Is loses the chain — wrap with %%w",
			errArgs, wraps)
	}
}

// countWrapVerbs counts %w verbs, skipping %% escapes and verb
// flags/width/precision (e.g. %+w, %-8w do not occur, but be tolerant).
func countWrapVerbs(format string) int {
	n := 0
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		if i < len(format) && format[i] == '%' {
			continue // literal %%
		}
		for i < len(format) {
			c := format[i]
			if c == 'w' {
				n++
				break
			}
			// Stop at any other verb letter.
			if (c >= 'a' && c <= 'z' && c != ' ') || (c >= 'A' && c <= 'Z') {
				break
			}
			i++
		}
	}
	return n
}
