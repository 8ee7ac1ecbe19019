package contracts

import (
	"bytes"
	"go/format"
	"os"
	"testing"
)

// TestGofmt fails on any Go file of the module's packages — sources,
// in-package tests and external tests, the file set every other contract
// reads — that gofmt would rewrite.
func TestGofmt(t *testing.T) {
	l := module(t)
	paths, err := l.packages()
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		src, err := l.source(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range append(append(src.files[:len(src.files):len(src.files)], src.tests...), src.xtests...) {
			name := fset.File(f.Pos()).Name()
			text, err := memo("open "+name, func() ([]byte, error) { return os.ReadFile(name) })
			if err != nil {
				t.Fatal(err)
			}
			formatted, err := format.Source(text)
			if err != nil {
				t.Fatalf("%s: %v", l.position(f.Pos()).Filename, err)
			}
			if !bytes.Equal(formatted, text) {
				t.Errorf("%s is not gofmt-formatted: run gofmt -w on it", l.position(f.Pos()).Filename)
			}
		}
	}
}
