package compose

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"multival/internal/bisim"
	"multival/internal/lts"
)

// randComponent generates a small component LTS over a shared gate pool,
// so random networks really synchronize.
type randComponent struct{ L *lts.LTS }

var gatePool = []string{"g", "h", "k"}

func (randComponent) Generate(rng *rand.Rand, _ int) reflect.Value {
	n := 2 + rng.Intn(4)
	l := lts.New("comp")
	l.AddStates(n)
	edges := 1 + rng.Intn(2*n)
	for e := 0; e < edges; e++ {
		src := lts.State(rng.Intn(n))
		dst := lts.State(rng.Intn(n))
		lab := gatePool[rng.Intn(len(gatePool))]
		if rng.Intn(4) == 0 {
			lab = "local" + string(rune('0'+rng.Intn(3)))
		}
		l.AddTransition(src, lab, dst)
	}
	l.SetInitial(0)
	return reflect.ValueOf(randComponent{l})
}

func qcfg() *quick.Config {
	return &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(404))}
}

func TestQuickProductCommutative(t *testing.T) {
	prop := func(a, b randComponent) bool {
		p1, err1 := pair(a.L, b.L, []string{"g", "h"}, 1<<14)
		p2, err2 := pair(b.L, a.L, []string{"g", "h"}, 1<<14)
		if err1 != nil || err2 != nil {
			return err1 != nil && err2 != nil
		}
		return equivalent(p1, p2, bisim.Strong)
	}
	if err := quick.Check(prop, qcfg()); err != nil {
		t.Error(err)
	}
}

// Note: PAIRWISE composition with alphabet-based participation is not
// associative in general (a gate whose transitions die inside one
// intermediate product no longer constrains the outside), which is
// exactly why SmartReduce tracks declared gates. The law that does hold
// is order-independence of the global product:
func TestQuickProductOrderIndependent(t *testing.T) {
	prop := func(a, b, c randComponent) bool {
		sync := []string{"g", "h", "k"}
		n1 := &Network{Components: []*lts.LTS{a.L, b.L, c.L}, Sync: sync, MaxStates: 1 << 14}
		n2 := &Network{Components: []*lts.LTS{c.L, a.L, b.L}, Sync: sync, MaxStates: 1 << 14}
		p1, err1 := n1.generate()
		p2, err2 := n2.generate()
		if err1 != nil || err2 != nil {
			return err1 != nil && err2 != nil
		}
		return equivalent(p1, p2, bisim.Strong)
	}
	if err := quick.Check(prop, qcfg()); err != nil {
		t.Error(err)
	}
}

func TestQuickSmartReduceEquivalentToMonolithic(t *testing.T) {
	prop := func(a, b, c randComponent) bool {
		net := &Network{
			Components: []*lts.LTS{a.L, b.L, c.L},
			Sync:       []string{"g", "h"},
			Hide:       []string{"h"},
			MaxStates:  1 << 14,
		}
		mono, _, err1 := monolithic(net, bisim.Branching)
		smart, _, err2 := smartReduce(net, bisim.Branching)
		if err1 != nil || err2 != nil {
			return err1 != nil && err2 != nil
		}
		return equivalent(mono, smart, bisim.Branching)
	}
	if err := quick.Check(prop, qcfg()); err != nil {
		t.Error(err)
	}
}

func TestQuickProductDeterministicNumbering(t *testing.T) {
	prop := func(a, b randComponent) bool {
		p1, err1 := pair(a.L, b.L, []string{"g"}, 1<<14)
		p2, err2 := pair(a.L, b.L, []string{"g"}, 1<<14)
		if err1 != nil || err2 != nil {
			return err1 != nil && err2 != nil
		}
		return lts.Isomorphic(p1, p2)
	}
	if err := quick.Check(prop, qcfg()); err != nil {
		t.Error(err)
	}
}
