package contracts

import (
	"go/types"
	"strings"
	"testing"
)

// deadExportAllowed lists the exported functions of internal/ that no
// non-test code uses. The list may only shrink: delete such a function
// or put it back to use, and drop its entry.
var deadExportAllowed = map[string]bool{
	"bisim.PartitionSeq":         true,
	"bisim.SimulationEquivalent": true,
	"chp.SharedChannels":         true,
	"compose.SortedLabels":       true,
	"fame.BuggyCoherenceLTS":     true,
	"fame.MPIFunctionalModel":    true,
	"fault.Enabled":              true,
	"fault.KnownPoint":           true,
	"fault.Points":               true,
	"lotos.MustParse":            true,
	"lts.Isomorphic":             true,
	"lts.Random":                 true,
	"obs.ExpBuckets":             true,
	"phasetype.HyperExp":         true,
	"phasetype.Hypo":             true,
	"xstream.PipelinePerf":       true,
}

// TestNoDeadExports fails on any exported package-level function of
// internal/ that no non-test file uses: neither the module's own code
// nor the benchmark harness under mvbench/ (a module of its own, whose
// imports of multival/internal/... resolve to this checkout).
func TestNoDeadExports(t *testing.T) {
	l := module(t)
	paths, err := l.packages()
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{} // "bisim.PartitionSeq"
	var declared []string
	for _, path := range append(paths, "multival/mvbench") {
		src, err := l.source(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(src.files) == 0 {
			continue // a package of tests only declares nothing to use
		}
		u, err := l.main.unit(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, obj := range u.info.Uses {
			fn, ok := obj.(*types.Func)
			if ok && fn.Pkg() != nil && strings.HasPrefix(fn.Pkg().Path(), "multival/internal/") && fn.Type().(*types.Signature).Recv() == nil {
				used[fn.Pkg().Name()+"."+fn.Origin().Name()] = true
			}
		}
		if !strings.HasPrefix(path, "multival/internal/") {
			continue
		}
		scope := u.pkg.Scope()
		for _, name := range scope.Names() {
			if fn, ok := scope.Lookup(name).(*types.Func); ok && fn.Exported() {
				declared = append(declared, u.pkg.Name()+"."+name)
			}
		}
	}

	exists := map[string]bool{}
	for _, fn := range declared {
		exists[fn] = true
		switch {
		case used[fn] && deadExportAllowed[fn]:
			t.Errorf("%s is used again: drop its deadExportAllowed entry", fn)
		case !used[fn] && !deadExportAllowed[fn]:
			t.Errorf("%s is exported but no non-test code uses it: delete it or unexport it", fn)
		}
	}
	for fn := range deadExportAllowed {
		if !exists[fn] {
			t.Errorf("stale deadExportAllowed entry %s: no such exported function", fn)
		}
	}
}
