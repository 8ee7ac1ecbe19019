package multival

import (
	"context"

	"multival/internal/bisim"
	"multival/internal/compose"
	"multival/internal/lts"
)

// Context-free shorthands for the tests and benchmarks. A background
// context never cancels, so the bisim calls cannot fail here.

func partition(l *lts.LTS, rel Relation) []int {
	block, err := bisim.PartitionCtx(context.Background(), l, rel, bisim.Options{})
	if err != nil {
		panic(err)
	}
	return block
}

func minimize(l *lts.LTS, rel Relation) (*lts.LTS, []int) {
	q, block, err := bisim.MinimizeCtx(context.Background(), l, rel, bisim.Options{})
	if err != nil {
		panic(err)
	}
	return q, block
}

func equivalent(a, b *lts.LTS, rel Relation) bool {
	eq, err := bisim.EquivalentCtx(context.Background(), a, b, rel, bisim.Options{})
	if err != nil {
		panic(err)
	}
	return eq
}

func compareLTS(a, b *lts.LTS, rel Relation) CompareResult {
	res, err := bisim.CompareCtx(context.Background(), a, b, rel, bisim.Options{})
	if err != nil {
		panic(err)
	}
	return res
}

func smartReduce(n *compose.Network, rel Relation) (*lts.LTS, *compose.Report, error) {
	return compose.SmartReduceCtx(context.Background(), n, rel, bisim.Options{})
}

func monolithic(n *compose.Network, rel Relation) (*lts.LTS, *compose.Report, error) {
	return compose.MonolithicCtx(context.Background(), n, rel, bisim.Options{})
}

// pair composes exactly two LTSs synchronizing on the given gates.
func pair(a, b *lts.LTS, sync []string, maxStates int) (*lts.LTS, error) {
	n := &compose.Network{Components: []*lts.LTS{a, b}, Sync: sync, MaxStates: maxStates}
	return n.GenerateOpt(context.Background(), compose.GenOptions{})
}
