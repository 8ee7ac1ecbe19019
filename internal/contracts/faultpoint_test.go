package contracts

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// faultPkg is the import path of the fault-injection layer.
const faultPkg = "multival/internal/fault"

// faultpoint keeps the fault-injection surface in sync: the points
// compiled into the serving seams, the Point… constants naming them, the
// catalog slice the metrics layer iterates, and the runtime registry
// `-fault` specs are validated against must all agree — a typo in any of
// them makes a chaos rule silently arm nothing.
//
// It flags fault.Hit called with a raw string literal instead of a
// Point… constant; fault.Rule composite literals whose Point value is
// not a cataloged constant; Point… constants missing from the package's
// faultPoints catalog slice (and stray catalog entries); and cataloged
// points never actually compiled into a fault.Hit seam. Test files are
// exempt from the literal rules.
func faultpoint(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, report reportFunc) {
	// The fault package itself manipulates arbitrary point strings.
	if pkg.Path() == faultPkg {
		return
	}

	catalog := knownPointValues(pkg)

	var (
		pointConsts  []*types.Const // Point… string consts declared here
		constPos     = map[types.Object]token.Pos{}
		catalogEnts  []catalogEntry
		catalogFound bool
		hitValues    = map[string]bool{} // constant values passed to fault.Hit in non-test files
	)

	for _, file := range files {
		if inTestFile(fset, file.Pos()) {
			continue // every rule below binds shipped code only
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ValueSpec:
				for _, name := range n.Names {
					if c, ok := info.ObjectOf(name).(*types.Const); ok && isPointConst(c) {
						pointConsts = append(pointConsts, c)
						constPos[c] = name.Pos()
					}
				}
			case *ast.GenDecl:
				if ents, ok := catalogSlice(info, n); ok {
					catalogFound = true
					catalogEnts = append(catalogEnts, ents...)
				}
			case *ast.CallExpr:
				if isPkgFunc(info, n, faultPkg, "Hit") && len(n.Args) == 1 {
					if v, ok := constString(info, n.Args[0]); ok {
						hitValues[v] = true
						if _, lit := ast.Unparen(n.Args[0]).(*ast.BasicLit); lit {
							report(n.Args[0].Pos(),
								"fault.Hit with a raw string literal %q; name the seam with a registered Point… constant", v)
						}
					}
				}
			case *ast.CompositeLit:
				checkRuleLiteral(info, report, n, catalog)
			}
			return true
		})
	}

	// Catalog drift checks only apply to point-declaring packages.
	if len(pointConsts) == 0 {
		return
	}
	if !catalogFound {
		report(constPos[pointConsts[0]],
			"package declares fault Point… constants but no faultPoints catalog slice; metrics and the runtime registry cannot see them")
		return
	}
	constVals := map[string]bool{}
	catalogVals := map[string]bool{}
	for _, e := range catalogEnts {
		catalogVals[e.val] = true
	}
	for _, c := range pointConsts {
		v := constant.StringVal(c.Val())
		constVals[v] = true
		if !catalogVals[v] {
			report(constPos[c], "fault point %s (%q) is missing from the faultPoints catalog slice", c.Name(), v)
		}
		if !hitValues[v] {
			report(constPos[c], "fault point %s (%q) is cataloged but never compiled into a fault.Hit seam", c.Name(), v)
		}
	}
	for _, e := range catalogEnts {
		if !constVals[e.val] {
			report(e.pos, "faultPoints catalog entry %q matches no declared Point… constant", e.val)
		}
	}
}

// catalogEntry is one element of the faultPoints catalog slice.
type catalogEntry struct {
	val string
	pos token.Pos
}

// isPointConst reports whether c is an exported Point-prefixed string
// constant ("PointCacheBuild").
func isPointConst(c *types.Const) bool {
	if !strings.HasPrefix(c.Name(), "Point") || len(c.Name()) <= len("Point") {
		return false
	}
	if r := c.Name()[len("Point")]; r < 'A' || r > 'Z' {
		return false
	}
	b, ok := c.Type().Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0 && c.Val().Kind() == constant.String
}

// knownPointValues gathers the point values visible to pkg: its own
// Point… consts plus the exported Point… consts of every direct import
// (so cmd/serve sees serve's catalog).
func knownPointValues(pkg *types.Package) map[string]bool {
	out := map[string]bool{}
	for _, p := range append([]*types.Package{pkg}, pkg.Imports()...) {
		scope := p.Scope()
		for _, name := range scope.Names() {
			if c, ok := scope.Lookup(name).(*types.Const); ok && isPointConst(c) {
				out[constant.StringVal(c.Val())] = true
			}
		}
	}
	return out
}

// catalogSlice recognizes `var faultPoints = []string{...}` (any name
// containing "faultpoints", case-insensitive) and returns its elements'
// constant values with positions.
func catalogSlice(info *types.Info, gd *ast.GenDecl) ([]catalogEntry, bool) {
	if gd.Tok != token.VAR {
		return nil, false
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok || len(vs.Names) != 1 || len(vs.Values) != 1 {
			continue
		}
		if !strings.Contains(strings.ToLower(vs.Names[0].Name), "faultpoints") {
			continue
		}
		cl, ok := ast.Unparen(vs.Values[0]).(*ast.CompositeLit)
		if !ok {
			continue
		}
		var ents []catalogEntry
		for _, elt := range cl.Elts {
			if v, ok := constString(info, elt); ok {
				ents = append(ents, catalogEntry{val: v, pos: elt.Pos()})
			}
		}
		return ents, true
	}
	return nil, false
}

// checkRuleLiteral flags fault.Rule{Point: "literal-not-in-catalog"}.
func checkRuleLiteral(info *types.Info, report reportFunc, cl *ast.CompositeLit, catalog map[string]bool) {
	t := info.TypeOf(cl)
	if t == nil || !isNamedType(t, faultPkg, "Rule") {
		return
	}
	for _, elt := range cl.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok || key.Name != "Point" {
			continue
		}
		if v, ok := constString(info, kv.Value); ok && !catalog[v] {
			report(kv.Value.Pos(),
				"fault.Rule names unregistered fault point %q; use a cataloged Point… constant", v)
		}
	}
}
