// Package contracts holds the repository's static-analysis contracts as
// plain tests: five analyzers (maporder, ctxloop, frozenmut,
// sentinelwrap, faultpoint) checked against golden fixtures under
// testdata/src and then run over every package of the module, plus the
// context, dead-export and formatting contracts. Everything is parsed and
// type-checked from source with the standard library alone.
package contracts

import (
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// source is one package directory, parsed once and shared by every
// type-checking of it.
type source struct {
	files  []*ast.File // non-test files
	tests  []*ast.File // in-package _test.go files
	xtests []*ast.File // external test package (package <name>_test)
}

// unit is one type-checked package with the syntax it was checked from.
type unit struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// loader resolves the import paths under one root directory from
// source: with prefix "multival/" and the module root it loads the
// module; with prefix "" and testdata/src it loads the fixtures. Every
// other import path goes to the standard library's source importer.
type loader struct {
	root   string
	prefix string
	srcs   map[string]*source
	main   *view
}

// All loaders share one file set and one standard library, which is
// type-checked from source once per test binary.
var (
	fset = token.NewFileSet()
	std  = importer.ForCompiler(fset, "source", nil)
)

func init() {
	// Type-check the standard library without cgo: no package here uses
	// it, and its pure-Go fallbacks declare the same API without running
	// the C toolchain.
	build.Default.CgoEnabled = false
	// The source importer resolves every import again through go/build,
	// which rescans the package directory each time. Serving those reads
	// from memory keeps the tests fast, and with them the check of
	// `go test`'s result cache, which revisits every file a test opened.
	build.Default.OpenFile = func(name string) (io.ReadCloser, error) {
		b, err := memo("open "+name, func() ([]byte, error) { return os.ReadFile(name) })
		if err != nil {
			return nil, err
		}
		return io.NopCloser(bytes.NewReader(b)), nil
	}
	build.Default.ReadDir = func(dir string) ([]fs.FileInfo, error) {
		return memo("readdir "+dir, func() ([]fs.FileInfo, error) {
			f, err := os.Open(dir)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			return f.Readdir(-1)
		})
	}
	build.Default.IsDir = func(path string) bool {
		fi, err := memo("stat "+path, func() (fs.FileInfo, error) { return os.Stat(path) })
		return err == nil && fi.IsDir()
	}
	build.Default.HasSubdir = func(root, dir string) (string, bool) {
		rel, err := filepath.Rel(root, dir)
		if err != nil || rel == ".." || strings.HasPrefix(rel, "../") {
			return "", false
		}
		return rel, true
	}
}

var (
	fsMu   sync.Mutex // the source importer parses files concurrently
	fsMemo = map[string]any{}
)

type memoized[T any] struct {
	v   T
	err error
}

// memo returns the result of read for key, calling it only the first time.
func memo[T any](key string, read func() (T, error)) (T, error) {
	fsMu.Lock()
	defer fsMu.Unlock()
	r, ok := fsMemo[key].(memoized[T])
	if !ok {
		r.v, r.err = read()
		fsMemo[key] = r
	}
	return r.v, r.err
}

func newLoader(root, prefix string) *loader {
	l := &loader{root: root, prefix: prefix, srcs: map[string]*source{}}
	l.main = &view{l: l, units: map[string]*unit{}}
	return l
}

var moduleLd *loader

// module returns the loader of the module, shared by the package's
// tests (which do not run in parallel).
func module(t *testing.T) *loader {
	if moduleLd == nil {
		root, err := filepath.Abs(filepath.Join("..", ".."))
		if err != nil {
			t.Fatal(err)
		}
		moduleLd = newLoader(root, "multival/")
	}
	return moduleLd
}

// position renders pos with its file name relative to the root.
func (l *loader) position(pos token.Pos) token.Position {
	p := fset.Position(pos)
	if rel, err := filepath.Rel(l.root, p.Filename); err == nil {
		p.Filename = rel
	}
	return p
}

// source parses the package at path once. It returns nil for a path
// that names no directory under the root.
func (l *loader) source(path string) (*source, error) {
	if src, ok := l.srcs[path]; ok {
		return src, nil
	}
	rel, ok := strings.CutPrefix(path+"/", l.prefix)
	dir := filepath.Join(l.root, filepath.FromSlash(rel))
	if fi, err := os.Stat(dir); !ok || err != nil || !fi.IsDir() {
		return nil, nil
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	src := &source{}
	for _, set := range []struct {
		names []string
		dst   *[]*ast.File
	}{{bp.GoFiles, &src.files}, {bp.TestGoFiles, &src.tests}, {bp.XTestGoFiles, &src.xtests}} {
		for _, name := range set.names {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			*set.dst = append(*set.dst, f)
		}
	}
	l.srcs[path] = src
	return src, nil
}

// check type-checks files as package path, resolving imports through imp.
func (l *loader) check(path string, files []*ast.File, imp types.Importer) (*unit, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Instances:  map[*ast.Ident]types.Instance{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	pkg, err := (&types.Config{Importer: imp}).Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	return &unit{files: files, pkg: pkg, info: info}, nil
}

// units returns what `go vet` checks for the package at path: the
// package with its in-package tests and, when present, its external
// test package.
func (l *loader) units(path string) ([]*unit, error) {
	src, err := l.source(path)
	if err != nil {
		return nil, err
	}
	withTests, err := l.check(path, append(append([]*ast.File(nil), src.files...), src.tests...), l.main)
	if err != nil || len(src.xtests) == 0 {
		return []*unit{withTests}, err
	}
	// The external tests import the test variant of path, and so do the
	// packages they import that import path in turn: check them all
	// again in a view of their own.
	xv := &view{l: l, units: map[string]*unit{}, withTests: path}
	xtest, err := l.check(path+"_test", src.xtests, xv)
	return []*unit{withTests, xtest}, err
}

// packages lists the import paths of the packages under the root, the
// way `./...` does: testdata, "." and "_" directories and nested
// modules are skipped, and so are directories with no Go files.
func (l *loader) packages() ([]string, error) {
	var out []string
	err := filepath.WalkDir(l.root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != l.root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil && dir != l.root {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(l.root, dir)
		if err != nil {
			return err
		}
		ip := path.Join(l.prefix, filepath.ToSlash(rel))
		var noGo *build.NoGoError
		if _, err := l.source(ip); errors.As(err, &noGo) {
			return nil
		} else if err != nil {
			return err
		}
		out = append(out, ip)
		return nil
	})
	return out, err
}

// view is one import graph: packages under the root are checked from
// their non-test files (and, for withTests, with its in-package tests)
// and memoized here; the standard library is shared by all views.
type view struct {
	l         *loader
	units     map[string]*unit
	withTests string
}

func (v *view) Import(path string) (*types.Package, error) {
	u, err := v.unit(path)
	switch {
	case err != nil:
		return nil, err
	case u == nil:
		return std.Import(path)
	}
	return u.pkg, nil
}

// unit returns the package at path as checked in v, or nil when path
// names no directory under the root.
func (v *view) unit(path string) (*unit, error) {
	if u, ok := v.units[path]; ok {
		if u == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return u, nil
	}
	src, err := v.l.source(path)
	if src == nil || err != nil {
		return nil, err
	}
	files := src.files
	if path == v.withTests {
		files = append(append([]*ast.File(nil), files...), src.tests...)
	}
	v.units[path] = nil
	u, err := v.l.check(path, files, v)
	if err != nil {
		return nil, err
	}
	v.units[path] = u
	return u, nil
}
