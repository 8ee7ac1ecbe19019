// Package process implements a LOTOS-like value-passing process calculus
// together with an explicit-state generator that compiles behaviour terms
// into labeled transition systems. It plays the role of the LOTOS language
// and the CAESAR compiler in the Multival flow: architectures are described
// as communicating processes, and their semantics is the LTS explored by
// System.GenerateCtx.
//
// The calculus provides action prefix with value offers (emission !e and
// finite-domain acceptance ?x:lo..hi), guarded behaviours, choice,
// parallel composition with gate synchronization, hiding, renaming,
// sequential composition with value passing (exit / >>), let binding, and
// recursive process instantiation.
package process

import (
	"fmt"
	"strconv"
)

// Kind discriminates runtime values.
type Kind int8

const (
	// KindInt is a (signed) integer value.
	KindInt Kind = iota
	// KindBool is a boolean value.
	KindBool
)

// Value is a runtime value: an integer or a boolean.
type Value struct {
	Kind Kind
	N    int // the integer, or 0/1 for false/true
}

// IntVal makes an integer value.
func IntVal(n int) Value { return Value{Kind: KindInt, N: n} }

// BoolVal makes a boolean value.
func BoolVal(b bool) Value {
	if b {
		return Value{Kind: KindBool, N: 1}
	}
	return Value{Kind: KindBool, N: 0}
}

// Int returns the integer payload; it panics on booleans.
func (v Value) Int() int {
	if v.Kind != KindInt {
		panic("process: Int() on bool value")
	}
	return v.N
}

// Bool returns the boolean payload; it panics on integers.
func (v Value) Bool() bool {
	if v.Kind != KindBool {
		panic("process: Bool() on int value")
	}
	return v.N != 0
}

// String renders the value as it appears in transition labels.
func (v Value) String() string {
	if v.Kind == KindBool {
		if v.N != 0 {
			return "true"
		}
		return "false"
	}
	return strconv.Itoa(v.N)
}

// Equal reports value equality (kind and payload).
func (v Value) Equal(w Value) bool { return v == w }

// TypeError reports a mismatch between expected and actual value kinds.
type TypeError struct {
	Op   string
	Want Kind
	Got  Value
}

func (e *TypeError) Error() string {
	want := "int"
	if e.Want == KindBool {
		want = "bool"
	}
	return fmt.Sprintf("process: %s: expected %s, got %s", e.Op, want, e.Got)
}
