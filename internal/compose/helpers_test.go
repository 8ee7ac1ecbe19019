package compose

import (
	"context"

	"multival/internal/bisim"
	"multival/internal/lts"
	"multival/internal/process"
)

// Context-free shorthands for the tests. A background context never
// cancels, so only the state bound can fail these calls.

// pair composes exactly two LTSs synchronizing on the given labels,
// hiding nothing.
func pair(a, b *lts.LTS, sync []string, maxStates int) (*lts.LTS, error) {
	n := &Network{Components: []*lts.LTS{a, b}, Sync: sync, MaxStates: maxStates}
	return n.generate()
}

// generate builds the product with default options.
func (n *Network) generate() (*lts.LTS, error) {
	return n.GenerateOpt(context.Background(), GenOptions{})
}

func smartReduce(n *Network, rel bisim.Relation) (*lts.LTS, *Report, error) {
	return SmartReduceCtx(context.Background(), n, rel, bisim.Options{})
}

func monolithic(n *Network, rel bisim.Relation) (*lts.LTS, *Report, error) {
	return MonolithicCtx(context.Background(), n, rel, bisim.Options{})
}

func equivalent(a, b *lts.LTS, rel bisim.Relation) bool {
	eq, err := bisim.EquivalentCtx(context.Background(), a, b, rel, bisim.Options{})
	if err != nil {
		panic(err)
	}
	return eq
}

func mustGenerate(sys *process.System) *lts.LTS {
	l, err := sys.GenerateCtx(context.Background(), process.GenOptions{})
	if err != nil {
		panic(err)
	}
	return l
}
