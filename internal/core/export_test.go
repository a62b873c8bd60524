package core

// MechanismOf reports the selected mechanism for variable v inside the
// first loop matching the label prefix: the loop's migration variable
// migrates, everything else caches.
func (r *Report) MechanismOf(loopPrefix, v string) Mechanism {
	l := r.FindLoop(loopPrefix)
	if l == nil {
		return ChooseCache
	}
	if l.Mech == ChooseMigrate && l.Var == v {
		return ChooseMigrate
	}
	return ChooseCache
}
