package sim

// ChangedLen reports how many marks the changed list holds, for the
// external tests that drive a State through another package.
func (st *State) ChangedLen() int { return len(st.changed) }
