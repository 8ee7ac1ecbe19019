package mcl

import (
	"multival/internal/lts"
)

// Fresh variable names used by the derived-operator constructors. They are
// deliberately unusual to avoid capture of user-chosen variables.
const (
	varReach  = "_R"
	varInv    = "_I"
	varInev   = "_F"
	varTauRch = "_T"
	varLoop   = "_L"
)

// Reachable is EF f: some path reaches a state satisfying f.
//
//	mu _R . f or <true> _R
func Reachable(f Formula) Formula {
	return Mu(varReach, Or(f, Dia(AnyAction(), Var(varReach))))
}

// ReachableAction holds when a transition matching act is reachable.
func ReachableAction(act ActionFormula) Formula {
	return Reachable(Dia(act, True()))
}

// Invariant is AG f: every reachable state satisfies f.
//
//	nu _I . f and [true] _I
func Invariant(f Formula) Formula {
	return Nu(varInv, And(f, Box(AnyAction(), Var(varInv))))
}

// Inevitable is AF f: every maximal path reaches a state satisfying f.
// Deadlocked states not satisfying f falsify the property.
//
//	mu _F . f or (<true> true and [true] _F)
func Inevitable(f Formula) Formula {
	return Mu(varInev, Or(f, And(Dia(AnyAction(), True()), Box(AnyAction(), Var(varInev)))))
}

// DeadlockFree is AG <true> true: no reachable state is a deadlock.
func DeadlockFree() Formula {
	return Invariant(Dia(AnyAction(), True()))
}

// NeverEnabled is AG not <act> true: no reachable state offers act.
func NeverEnabled(act ActionFormula) Formula {
	return Invariant(Not(Dia(act, True())))
}

// Response is AG [trigger] AF <response> true: every trigger is inevitably
// followed by a response.
func Response(trigger, response ActionFormula) Formula {
	return Invariant(Box(trigger, Inevitable(Dia(response, True()))))
}

// TauReach is f reachable through internal steps only:
//
//	mu _T . f or <tau> _T
func TauReach(f Formula) Formula {
	return Mu(varTauRch, Or(f, Dia(TauAction(), Var(varTauRch))))
}

// WeakDia is the weak diamond ⟪act⟫ f = ⟨tau*.act.tau*⟩ f.
func WeakDia(act ActionFormula, f Formula) Formula {
	return Mu(varReach, Or(Dia(act, TauReach(f)), Dia(TauAction(), Var(varReach))))
}

// Livelock holds when a cycle of internal actions is reachable:
//
//	EF nu _L . <tau> _L
func Livelock() Formula {
	return Reachable(Nu(varLoop, Dia(TauAction(), Var(varLoop))))
}

// reachabilityWitness recognizes formulas built by Reachable /
// ReachableAction and, when possible, produces a shortest label trace from
// the initial state to a state satisfying the target subformula (for
// ReachableAction, the trace includes the matching action itself).
func reachabilityWitness(l *lts.LTS, f Formula) ([]string, bool) {
	mu, ok := f.(fMu)
	if !ok {
		return nil, false
	}
	or, ok := mu.body.(fOr)
	if !ok {
		return nil, false
	}
	dia, ok := or.b.(fDia)
	if !ok {
		return nil, false
	}
	v, ok := dia.f.(fVar)
	if !ok || v.name != mu.name {
		return nil, false
	}
	if _, isAny := dia.act.(afAny); !isAny {
		return nil, false
	}
	target := or.a
	if containsVar(target, mu.name) {
		return nil, false
	}
	targetSet, err := Sat(l, target)
	if err != nil {
		return nil, false
	}

	// If the target itself is <act> true, extend the trace with the action.
	var finalAct ActionFormula
	if d, ok := target.(fDia); ok {
		if _, isTrue := d.f.(fTrue); isTrue {
			finalAct = d.act
		}
	}

	// BFS for a shortest path from initial into targetSet.
	n := l.NumStates()
	if n == 0 {
		return nil, false
	}
	prevState := make([]lts.State, n)
	prevLabel := make([]int, n)
	seen := make([]bool, n)
	seen[l.Initial()] = true
	prevState[l.Initial()] = -1
	queue := []lts.State{l.Initial()}
	var goal lts.State = -1
	for qi := 0; qi < len(queue) && goal < 0; qi++ {
		s := queue[qi]
		if targetSet[s] {
			goal = s
			break
		}
		l.EachOutgoing(s, func(t lts.Transition) {
			if !seen[t.Dst] {
				seen[t.Dst] = true
				prevState[t.Dst] = s
				prevLabel[t.Dst] = t.Label
				queue = append(queue, t.Dst)
			}
		})
	}
	if goal < 0 {
		return nil, false
	}
	var trace []string
	for s := goal; prevState[s] != -1; s = prevState[s] {
		trace = append(trace, l.LabelName(prevLabel[s]))
	}
	// Reverse.
	for i, j := 0, len(trace)-1; i < j; i, j = i+1, j-1 {
		trace[i], trace[j] = trace[j], trace[i]
	}
	if finalAct != nil {
		found := false
		l.EachOutgoing(goal, func(t lts.Transition) {
			if !found && finalAct.Matches(l.LabelName(t.Label)) {
				trace = append(trace, l.LabelName(t.Label))
				found = true
			}
		})
	}
	return trace, true
}

func containsVar(f Formula, name string) bool {
	switch g := f.(type) {
	case fVar:
		return g.name == name
	case fNot:
		return containsVar(g.f, name)
	case fAnd:
		return containsVar(g.a, name) || containsVar(g.b, name)
	case fOr:
		return containsVar(g.a, name) || containsVar(g.b, name)
	case fDia:
		return containsVar(g.f, name)
	case fBox:
		return containsVar(g.f, name)
	case fMu:
		return g.name != name && containsVar(g.body, name)
	case fNu:
		return g.name != name && containsVar(g.body, name)
	default:
		return false
	}
}
