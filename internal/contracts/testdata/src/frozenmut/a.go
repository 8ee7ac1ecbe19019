// Golden fixture for multivet/frozenmut: writes through CSR backing
// slices returned by the LTS / Matrix accessors.
package frozenmut

import (
	"sort"

	"multival/internal/lts"
	"multival/internal/sparse"
)

// BAD: writing an element of an accessor view.
func Clobber(l *lts.LTS) {
	labels, dsts := l.Out(0)
	_ = labels
	dsts[0] = 7 // want `write into CSR backing slice returned by LTS.Out`
}

// BAD: mutating the successor view.
func ClobberSucc(l *lts.LTS) {
	succ := l.Succ(0, 1)
	succ[0] = -1 // want `write into CSR backing slice returned by LTS.Succ`
}

// BAD: writing through a reslice alias.
func ClobberAlias(l *lts.LTS) {
	_, dsts := l.In(3)
	tail := dsts[1:]
	tail[0] = 9 // want `write into CSR backing slice returned by LTS.In`
}

// BAD: sorting a view reorders the index arrays.
func SortView(m *sparse.Matrix) {
	cols, _ := m.Row(0)
	sort.Slice(cols, func(i, j int) bool { return cols[i] < cols[j] }) // want `sorting CSR backing slice returned by Matrix.Row`
}

// BAD: copying into a view.
func CopyInto(m *sparse.Matrix) {
	tags := m.RowTags(2)
	copy(tags, []int32{1, 2, 3}) // want `copy into CSR backing slice returned by Matrix.RowTags`
}

// BAD: append may write the backing array in place.
func AppendView(l *lts.LTS) []int32 {
	succ := l.Succ(1, 0)
	return append(succ, 5) // want `append to CSR backing slice returned by LTS.Succ`
}

// GOOD: reading is the whole point.
func Degree(l *lts.LTS) int {
	labels, _ := l.Out(0)
	return len(labels)
}

// GOOD: cloning first, then mutating the copy.
func SortedCopy(m *sparse.Matrix) []int32 {
	cols, _ := m.Row(0)
	own := append([]int32(nil), cols...)
	sort.Slice(own, func(i, j int) bool { return own[i] < own[j] })
	own[0] = 0
	return own
}

// GOOD: copy FROM a view into owned memory.
func Snapshot(l *lts.LTS) []int32 {
	succ := l.Succ(0, 0)
	out := make([]int32, len(succ))
	copy(out, succ)
	return out
}
