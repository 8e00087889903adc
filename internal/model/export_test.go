package model

// CarriedStateKey returns the state key c carries for process p, which must
// always equal c.State(p).Key().
func (c *Config) CarriedStateKey(p PID) string { return c.procs[p].skey }
