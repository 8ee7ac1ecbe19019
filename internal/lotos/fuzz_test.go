package lotos

import (
	"errors"
	"testing"
)

// FuzzParseLOTOS feeds arbitrary specifications to Parse, the entry of
// every LOTOS model the CLIs, sweeps and the library read. It must never
// panic, and every rejection must be the package's positioned *Error.
func FuzzParseLOTOS(f *testing.F) {
	for _, seed := range []string{
		"a; b; stop",
		"specification demo behaviour a; stop",
		"(g ?x:1..2 ; exit(x+10)) >> accept y in h !y ; stop",
		"process Count(n) :=\n [n > 0] -> dec; Count(n - 1)\n [] [n == 0] -> zero; stop\nendproc\nbehaviour Count(2)",
		"process Buf :=\n put ?x:0..1 ; get !x ; Buf\nendproc\nbehaviour Buf",
		"process Buf1 := put ?x:0..1 ; mid !x ; Buf1 endproc\nprocess Buf2 := mid ?x:0..1 ; get !x ; Buf2 endproc\nbehaviour hide mid in (Buf1 |[mid]| Buf2)",
		"-- line comment\n(* block (* nested *) comment *)\na; stop -- trailing",
		"let x := 1 in g !(if x > 0 then x * 2 else -x) ; stop",
		"rename a -> b in (a; stop ||| c; exit) [> d; stop",
		"g !true ; stop [] g ?b:bool ; [not b] -> stop",
		"", "a;", "process P := stop", "a; stop extra", "g ?x ; stop",
		"g ?x:0. .2 ; stop", "[x > ] -> a; stop", "(a; stop", "hide in a; stop",
		"let x := 1 a; stop", "a; stop ||| ", "stop [] ", "(* unterminated",
		"g !x = 1 ; stop", "process stop := stop endproc", "a | b", "exit(1,) ; stop",
		"a; stop\n   ???",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		_, err := Parse(src)
		var perr *Error
		if err != nil && !errors.As(err, &perr) {
			t.Fatalf("Parse(%q) error %v (%T) is not a *lotos.Error", src, err, err)
		}
	})
}
