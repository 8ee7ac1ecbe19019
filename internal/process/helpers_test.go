package process

import (
	"context"

	"multival/internal/bisim"
	"multival/internal/lts"
)

// Context-free shorthands for the tests. A background context never
// cancels, so the bisim calls cannot fail here.

// generateBehavior builds the LTS of a standalone behaviour with no
// process definitions.
func generateBehavior(name string, b Behavior, opts GenOptions) (*lts.LTS, error) {
	return NewSystem(name).SetRoot(b).GenerateCtx(context.Background(), opts)
}

func strongEquivalent(a, b *lts.LTS) bool {
	eq, err := bisim.EquivalentCtx(context.Background(), a, b, bisim.Strong, bisim.Options{})
	if err != nil {
		panic(err)
	}
	return eq
}

func strongMinimize(l *lts.LTS) *lts.LTS {
	q, _, err := bisim.MinimizeCtx(context.Background(), l, bisim.Strong, bisim.Options{})
	if err != nil {
		panic(err)
	}
	return q
}
