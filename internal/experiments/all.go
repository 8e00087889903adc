package experiments

import "fmt"

// Each sampled experiment's trial, run or seed count at scale 1, chosen
// so the full suite runs in well under a minute. Scale multiplies every
// one of them; e4Stages, the adversary's depth, is not a count and stays.
const (
	e1Trials = 200
	e4Stages = 9
	e4Fair   = 20
	e5Runs   = 15
	e6Runs   = 25
	e7Trials = 200
	e9Runs   = 15
	e10Seeds = 20
)

// Runner names one experiment and how to produce its table.
type Runner struct {
	ID  string
	Run func() (*Table, error)
}

// Suite returns all experiments, in order, with every count multiplied by
// scale and the sampled runs of E1, E5 and E7 drawn from seed.
func Suite(scale int, seed int64) []Runner {
	return []Runner{
		{"E1", func() (*Table, error) { return E1Commutativity(scale*e1Trials, seed) }},
		{"E2", E2InitialValency},
		{"E3", E3BivalencePreservation},
		{"E4", func() (*Table, error) { return E4AdversarialRun(e4Stages, scale*e4Fair) }},
		{"E5", func() (*Table, error) { return E5InitiallyDead(scale*e5Runs, seed) }},
		{"E6", func() (*Table, error) { return E6CommitWindow(scale * e6Runs) }},
		{"E7", func() (*Table, error) { return E7FloodSet(scale*e7Trials, seed) }},
		{"E8", E8ByzantineOM},
		{"E9", func() (*Table, error) { return E9BenOr(scale * e9Runs) }},
		{"E10", func() (*Table, error) { return E10PartialSynchrony(scale * e10Seeds) }},
		{"E11", E11Agreement},
		{"E13", E13StateSpace},
	}
}

// RunByID runs the experiment with the given ID as Suite(scale, seed)
// would.
func RunByID(id string, scale int, seed int64) (*Table, error) {
	for _, r := range Suite(scale, seed) {
		if r.ID == id {
			return r.Run()
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q", id)
}
