package contracts

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// Suppression directives.
//
// Grammar (one directive per comment line, line comments only):
//
//	//lint:ignore multivet/<name> <reason>
//
// The directive suppresses diagnostics of analyzer <name> reported on
// the same line or on the line directly below it (i.e. write it as a
// trailing comment or on its own line above the offending statement).
// The reason is mandatory: an audited false positive must say why it is
// one. Directives aimed at other tools (staticcheck codes etc.) are
// ignored; directives naming an unknown multivet analyzer, missing a
// reason, or suppressing nothing are themselves diagnosed, so stale
// escapes cannot accumulate.

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	pos       token.Pos
	file      string
	line      int
	analyzer  string // bare analyzer name ("maporder"), after the multivet/ prefix
	reason    string
	malformed string // non-empty description when the directive is unusable
	used      bool
}

const ignorePrefix = "lint:ignore "

// collectIgnores parses every multivet suppression directive in files.
func collectIgnores(fset *token.FileSet, files []*ast.File) []*ignoreDirective {
	var out []*ignoreDirective
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//")
				if !ok {
					continue // /* */ comments do not carry directives
				}
				rest, ok := strings.CutPrefix(strings.TrimSpace(text), ignorePrefix)
				if !ok {
					continue
				}
				check, reason, _ := strings.Cut(strings.TrimSpace(rest), " ")
				name, ok := strings.CutPrefix(check, "multivet/")
				if !ok {
					continue // some other linter's directive
				}
				pos := fset.Position(c.Pos())
				d := &ignoreDirective{
					pos:      c.Pos(),
					file:     pos.Filename,
					line:     pos.Line,
					analyzer: name,
					reason:   strings.TrimSpace(reason),
				}
				if d.reason == "" {
					d.malformed = "missing reason: want //lint:ignore multivet/" + name + " <reason>"
				}
				out = append(out, d)
			}
		}
	}
	return out
}

// filterIgnored drops diagnostics suppressed by a directive, marking the
// directives it consumed. A directive on line L covers lines L and L+1
// of the same file for its named analyzer.
func filterIgnored(fset *token.FileSet, diags []diagnostic, ignores []*ignoreDirective) []diagnostic {
	kept := diags[:0]
	for _, d := range diags {
		pos := fset.Position(d.pos)
		suppressed := false
		for _, ig := range ignores {
			if ig.malformed != "" || ig.analyzer != d.analyzer || ig.file != pos.Filename {
				continue
			}
			if pos.Line == ig.line || pos.Line == ig.line+1 {
				ig.used = true
				suppressed = true
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	return kept
}

// auditIgnores turns malformed, unknown-analyzer and unused directives
// into diagnostics of their own (analyzer "ignore"), so the escape hatch
// stays audited. known maps valid analyzer names.
func auditIgnores(ignores []*ignoreDirective, known map[string]bool) []diagnostic {
	var out []diagnostic
	for _, ig := range ignores {
		switch {
		case ig.malformed != "":
			out = append(out, diagnostic{ig.pos, "ignore", "malformed lint:ignore directive: " + ig.malformed})
		case !known[ig.analyzer]:
			out = append(out, diagnostic{ig.pos, "ignore", "lint:ignore names unknown analyzer multivet/" + ig.analyzer})
		case !ig.used:
			out = append(out, diagnostic{ig.pos, "ignore", "lint:ignore directive for multivet/" + ig.analyzer + " suppresses no diagnostic; remove it"})
		}
	}
	return out
}

const directiveSrc = `package p

//lint:ignore multivet/maporder audited: keys feed an order-insensitive set
var a = 1

//lint:ignore multivet/maporder
var b = 2

//lint:ignore staticcheck/SA1000 someone else's grammar
var c = 3

func f() int {
	return a + b + c //lint:ignore multivet/ctxloop trailing form
}
`

func parseDirectives(t *testing.T) (*token.FileSet, []*ignoreDirective) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", directiveSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, collectIgnores(fset, []*ast.File{f})
}

func TestCollectIgnores(t *testing.T) {
	_, igs := parseDirectives(t)
	if len(igs) != 3 {
		t.Fatalf("got %d directives, want 3 (foreign-tool directive skipped): %+v", len(igs), igs)
	}
	if igs[0].analyzer != "maporder" || igs[0].reason == "" || igs[0].malformed != "" {
		t.Errorf("directive 0 misparsed: %+v", igs[0])
	}
	if igs[1].malformed == "" || !strings.Contains(igs[1].malformed, "missing reason") {
		t.Errorf("reasonless directive not marked malformed: %+v", igs[1])
	}
	if igs[2].analyzer != "ctxloop" || igs[2].line != 13 {
		t.Errorf("trailing directive misparsed: %+v", igs[2])
	}
}

func TestFilterCoversLineAndNext(t *testing.T) {
	fset, igs := parseDirectives(t)
	mk := func(line int, an string) diagnostic {
		// Positions are synthesized inside p.go by line offset.
		return diagnostic{fset.File(igs[0].pos).LineStart(line), an, "x"}
	}
	diags := []diagnostic{
		mk(3, "maporder"), // on the directive line: suppressed
		mk(4, "maporder"), // line below: suppressed
		mk(5, "maporder"), // two below: kept
		mk(4, "ctxloop"),  // other analyzer: kept
	}
	kept := filterIgnored(fset, diags, igs)
	if len(kept) != 2 {
		t.Fatalf("got %d surviving diagnostics, want 2: %+v", len(kept), kept)
	}
	if !igs[0].used {
		t.Error("suppressing directive not marked used")
	}
}

func TestAuditIgnores(t *testing.T) {
	_, igs := parseDirectives(t)
	known := map[string]bool{"maporder": true} // ctxloop "unknown" here
	var msgs []string
	for _, d := range auditIgnores(igs, known) {
		msgs = append(msgs, d.msg)
	}
	joined := strings.Join(msgs, "\n")
	for _, want := range []string{"malformed lint:ignore", "unknown analyzer multivet/ctxloop", "suppresses no diagnostic"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing %q diagnostic in %q", want, joined)
		}
	}
	// Pin the directive prefix so the grammar in README and code cannot
	// drift silently.
	if ignorePrefix != "lint:ignore " {
		t.Fatalf("directive prefix changed: %q", ignorePrefix)
	}
}
