// Package lts is a fixture fake of multival/internal/lts: frozenmut
// matches the LTS index accessors by receiver type and method name.
package lts

type State int32

type LTS struct {
	outOff []int32
	outLab []int32
	outDst []int32
	inOff  []int32
	inLab  []int32
	inSrc  []int32
}

func (l *LTS) Out(s State) (labels, dsts []int32) {
	return l.outLab, l.outDst
}

func (l *LTS) In(s State) (labels, srcs []int32) {
	return l.inLab, l.inSrc
}

func (l *LTS) Succ(s State, label int) []int32 {
	return l.outDst
}

func (l *LTS) NumStates() int { return len(l.outOff) - 1 }
