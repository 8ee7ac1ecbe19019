package bisim

import (
	"context"

	"multival/internal/lts"
)

// Context-free shorthands for the tests. A background context never
// cancels, so the refinement entry points cannot fail here.

func partition(l *lts.LTS, r Relation) []int {
	return partitionOpt(l, r, Options{})
}

func partitionOpt(l *lts.LTS, r Relation, opt Options) []int {
	block, err := PartitionCtx(context.Background(), l, r, opt)
	if err != nil {
		panic(err)
	}
	return block
}

func minimize(l *lts.LTS, r Relation) (*lts.LTS, []int) {
	return minimizeOpt(l, r, Options{})
}

func minimizeOpt(l *lts.LTS, r Relation, opt Options) (*lts.LTS, []int) {
	q, block, err := MinimizeCtx(context.Background(), l, r, opt)
	if err != nil {
		panic(err)
	}
	return q, block
}

func equivalent(a, b *lts.LTS, r Relation) bool {
	eq, err := EquivalentCtx(context.Background(), a, b, r, Options{})
	if err != nil {
		panic(err)
	}
	return eq
}

func compare(a, b *lts.LTS, r Relation) CompareResult {
	res, err := CompareCtx(context.Background(), a, b, r, Options{})
	if err != nil {
		panic(err)
	}
	return res
}
