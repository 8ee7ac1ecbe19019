package imc

import (
	"context"

	"multival/internal/markov"
)

// Context-free shorthands for the tests. A background context never
// cancels, so lumping cannot fail here.

func (m *IMC) toCTMC(sched Scheduler) (*CTMCResult, error) {
	return m.ToCTMCCtx(context.Background(), sched, nil)
}

func (m *IMC) lump() (*IMC, []int) {
	q, block, err := m.LumpCtx(context.Background(), nil)
	if err != nil {
		panic(err)
	}
	return q, block
}

func (m *IMC) minimize() *IMC {
	q, err := m.Minimize(context.Background())
	if err != nil {
		panic(err)
	}
	return q
}

func (r *CTMCResult) transient(t float64) ([]float64, error) {
	return r.TransientOpt(t, markov.SolveOptions{})
}
