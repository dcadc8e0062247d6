package exec

// Lanes is the group width, for tests that must fill or straddle a group.
const Lanes = lanes

// Dispatched returns how many closures the runner has called so far: body
// ops plus one terminator per block entered, each counted once however
// many lanes it served.
func (m *Runner) Dispatched() int { return m.dispatched }
