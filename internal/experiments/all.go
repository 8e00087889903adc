package experiments

import "fmt"

// Sizes scales the whole suite. Defaults are chosen so the full suite runs
// in well under a minute; benchmarks and the CLI can scale up.
type Sizes struct {
	E1Trials int
	E4Stages int
	E4Fair   int
	E5Runs   int
	E6Runs   int
	E7Trials int
	E9Runs   int
	E10Seeds int
	E12Seeds int
	E14Seeds int
	E15Seeds int
	E16Seeds int
	E17Seeds int
	Seed     int64
}

// DefaultSizes returns the standard suite scale.
func DefaultSizes() Sizes {
	return Sizes{
		E1Trials: 200,
		E4Stages: 9,
		E4Fair:   20,
		E5Runs:   15,
		E6Runs:   25,
		E7Trials: 200,
		E9Runs:   15,
		E10Seeds: 20,
		E12Seeds: 15,
		E14Seeds: 20,
		E15Seeds: 20,
		E16Seeds: 25,
		E17Seeds: 10,
		Seed:     1,
	}
}

// Runner names one experiment and how to produce its table.
type Runner struct {
	ID  string
	Run func() (*Table, error)
}

// Suite returns all experiments at the given sizes, in order.
func Suite(s Sizes) []Runner {
	return []Runner{
		{"E1", func() (*Table, error) { return E1Commutativity(s.E1Trials, s.Seed) }},
		{"E2", E2InitialValency},
		{"E3", E3BivalencePreservation},
		{"E4", func() (*Table, error) { return E4AdversarialRun(s.E4Stages, s.E4Fair) }},
		{"E5", func() (*Table, error) { return E5InitiallyDead(s.E5Runs, s.Seed) }},
		{"E6", func() (*Table, error) { return E6CommitWindow(s.E6Runs) }},
		{"E7", func() (*Table, error) { return E7FloodSet(s.E7Trials, s.Seed) }},
		{"E8", E8ByzantineOM},
		{"E9", func() (*Table, error) { return E9BenOr(s.E9Runs) }},
		{"E10", func() (*Table, error) { return E10PartialSynchrony(s.E10Seeds) }},
		{"E11", E11Agreement},
		{"E12", func() (*Table, error) { return E12FailureDetector(s.E12Seeds) }},
		{"E13", E13StateSpace},
		{"E14", func() (*Table, error) { return E14ApproximateAgreement(s.E14Seeds) }},
		{"E15", func() (*Table, error) { return E15AtomicRegister(s.E15Seeds) }},
		{"E16", func() (*Table, error) { return E16ReliableBroadcast(s.E16Seeds) }},
		{"E17", func() (*Table, error) { return E17Multivalued(s.E17Seeds) }},
		{"E18", func() (*Table, error) { return E18Election(0) }},
	}
}

// RunByID runs the experiment with the given ID at the given sizes.
func RunByID(id string, s Sizes) (*Table, error) {
	for _, r := range Suite(s) {
		if r.ID == id {
			return r.Run()
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q", id)
}
