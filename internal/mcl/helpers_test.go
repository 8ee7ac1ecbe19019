package mcl

// Constructors the tests build formulas with; no production code needs
// them.

// MustActionRegex is ActionRegex that panics on a bad pattern.
func MustActionRegex(pattern string) ActionFormula {
	a, err := ActionRegex(pattern)
	if err != nil {
		panic(err)
	}
	return a
}

// MustParse is Parse that panics on error.
func MustParse(input string) Formula {
	f, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return f
}

// VisibleAction matches every label except tau.
func VisibleAction() ActionFormula { return afNot{afTau{}} }

// TauReach is f reachable through internal steps only:
//
//	mu _T . f or <tau> _T
func TauReach(f Formula) Formula {
	return Mu("_T", Or(f, Dia(TauAction(), Var("_T"))))
}

// WeakDia is the weak diamond ⟪act⟫ f = ⟨tau*.act.tau*⟩ f.
func WeakDia(act ActionFormula, f Formula) Formula {
	return Mu(varReach, Or(Dia(act, TauReach(f)), Dia(TauAction(), Var(varReach))))
}
