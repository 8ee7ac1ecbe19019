package contracts

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// reportFunc records one finding of the running analyzer at pos.
type reportFunc func(pos token.Pos, format string, args ...any)

// analyzer checks one type-checked package and reports what it finds.
type analyzer func(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, report reportFunc)

// suite is every contract analyzer, by the name //lint:ignore uses.
var suite = []struct {
	name string
	run  analyzer
}{
	{"ctxloop", ctxloop},
	{"faultpoint", faultpoint},
	{"frozenmut", frozenmut},
	{"maporder", maporder},
	{"sentinelwrap", sentinelwrap},
}

// diagnostic is one finding, anchored to a source position.
type diagnostic struct {
	pos      token.Pos
	analyzer string // "ignore" for findings about the directives themselves
	msg      string
}

// runSuite runs every analyzer over u and returns the findings that
// survive the //lint:ignore directives, followed by the audit of the
// directives themselves, in source order.
func runSuite(u *unit) []diagnostic {
	var diags []diagnostic
	known := map[string]bool{}
	for _, a := range suite {
		known[a.name] = true
		a.run(fset, u.files, u.pkg, u.info, func(pos token.Pos, format string, args ...any) {
			diags = append(diags, diagnostic{pos, a.name, fmt.Sprintf(format, args...)})
		})
	}
	ignores := collectIgnores(fset, u.files)
	diags = filterIgnored(fset, diags, ignores)
	diags = append(diags, auditIgnores(ignores, known)...)
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].pos < diags[j].pos })
	return diags
}

// ---------------------------------------------------------------------
// Shared type predicates.

// inTestFile reports whether pos lies in a _test.go file. Several
// analyzers exempt tests: the determinism and taxonomy contracts bind
// what the engine ships, while tests routinely build throwaway maps,
// errors and fault plans.
func inTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// isContext reports whether t is context.Context.
func isContext(t types.Type) bool {
	return isNamedType(t, "context", "Context")
}

// isErrorType reports whether t implements the built-in error interface.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	return types.Implements(t, errIface)
}

// isNamedType reports whether t (or the pointee of t) is the named type
// pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// implementsWriter reports whether t has a method Write([]byte) (int, error)
// — the structural io.Writer shape, so hashers and buffers declared
// anywhere match alike.
func implementsWriter(t types.Type) bool {
	if t == nil {
		return false
	}
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, "Write")
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() != 1 || sig.Results().Len() != 2 {
		return false
	}
	sl, ok := sig.Params().At(0).Type().(*types.Slice)
	if !ok {
		return false
	}
	basic, ok := sl.Elem().(*types.Basic)
	if !ok || basic.Kind() != types.Byte && basic.Kind() != types.Uint8 {
		return false
	}
	r0, ok := sig.Results().At(0).Type().(*types.Basic)
	return ok && r0.Kind() == types.Int && isErrorType(sig.Results().At(1).Type())
}

// calleeFunc resolves the called package-level function or method of a
// call expression, or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.ObjectOf(id).(*types.Func)
	return fn
}

// isPkgFunc reports whether call invokes the package-level function
// pkgPath.name.
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if sig, _ := fn.Type().(*types.Signature); sig != nil && sig.Recv() != nil {
		return false
	}
	return fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// isBuiltinCall reports whether call invokes the predeclared builtin
// name (append, copy, …). Builtin identifiers resolve to *types.Builtin
// objects, never to package-level functions.
func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	obj := info.ObjectOf(id)
	if obj == nil {
		return true // unresolved in a partial package: assume predeclared
	}
	_, isBuiltin := obj.(*types.Builtin)
	return isBuiltin
}

// constString returns the constant string value of e, if e is a
// compile-time string constant (literal or named const).
func constString(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// ---------------------------------------------------------------------
// Tests.

// TestFixtures runs the suite over each golden fixture package under
// testdata/src and matches its findings against the `// want "rx"...`
// comments on the reported lines: every finding must be wanted and
// every want must be met.
func TestFixtures(t *testing.T) {
	l := newLoader(filepath.Join("testdata", "src"), "")
	for _, fixture := range []string{
		"maporder", "ctxloop", "frozenmut", "sentinelwrap",
		"faultpoint", "faultpoint/nocatalog", "faultpointuse",
		"refine", // maporder and ctxloop on the shape of a refinement driver
		"ignore", // the //lint:ignore grammar and its audit
	} {
		t.Run(fixture, func(t *testing.T) {
			units, err := l.units(fixture)
			if err != nil {
				t.Fatal(err)
			}
			for _, u := range units {
				checkWants(t, u.files, runSuite(u))
			}
		})
	}
}

// TestRepository runs the suite over every package of the module with
// its tests, as `go vet ./...` sees them, and fails on any finding.
func TestRepository(t *testing.T) {
	l := module(t)
	paths, err := l.packages()
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		units, err := l.units(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		for _, u := range units {
			for _, d := range runSuite(u) {
				t.Errorf("%s: %s [multivet/%s]", l.position(d.pos), d.msg, d.analyzer)
			}
		}
	}
}

// want is one expectation parsed from a fixture comment.
type want struct {
	file string
	line int
	rx   *regexp.Regexp
	hit  bool
}

var wantRe = regexp.MustCompile(`// want (.*)$`)

// checkWants matches diagnostics against `// want "rx" "rx"...` comments
// on the expected line.
func checkWants(t *testing.T, files []*ast.File, diags []diagnostic) {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for s := strings.TrimSpace(m[1]); s != ""; {
					prefix, err := strconv.QuotedPrefix(s)
					if err != nil {
						t.Fatalf("%s: want arguments must be quoted strings: %q", pos, s)
					}
					q, _ := strconv.Unquote(prefix)
					rx, err := regexp.Compile(q)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, q, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, rx: rx})
					s = strings.TrimSpace(s[len(prefix):])
				}
			}
		}
	}
	for _, d := range diags {
		pos := fset.Position(d.pos)
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == pos.Filename && w.line == pos.Line && w.rx.MatchString(d.msg) {
				w.hit, matched = true, true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s [%s]", pos, d.msg, d.analyzer)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.rx)
		}
	}
}
