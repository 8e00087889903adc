package enginetest

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protogen"
)

// Fixture is one generated protocol pinned to disk: the corpus under
// testdata/protogen is a directory of these, and the conformance fuzz
// targets dump shrunk reproducers in the same format. The protocol itself
// lives entirely in Name (protogen names are self-describing), so a fixture
// stays loadable by anything that can resolve a protocol name.
type Fixture struct {
	// Name is the self-describing gen: protocol name.
	Name string `json:"name"`
	// Inputs is the initial-value vector as a digit string ("011" gives
	// process 0 input 0, processes 1 and 2 input 1) — human-readable and
	// hand-editable, where a raw byte slice would JSON-encode as base64.
	Inputs string `json:"inputs"`
	// MaxConfigs bounds the fixture's exploration; 0 leaves the bound to
	// whoever runs it.
	MaxConfigs int `json:"max_configs,omitempty"`
	// Note records where the fixture came from.
	Note string `json:"note,omitempty"`
}

// NewFixture pins (sp, inputs) as a fixture.
func NewFixture(sp protogen.Spec, inputs model.Inputs, maxConfigs int, note string) Fixture {
	return Fixture{Name: sp.Name(), Inputs: inputs.String(), MaxConfigs: maxConfigs, Note: note}
}

// InputValues decodes the fixture's input string.
func (fx Fixture) InputValues() (model.Inputs, error) {
	in, err := model.ParseInputs(fx.Inputs)
	if err != nil {
		return nil, fmt.Errorf("enginetest: fixture %w", err)
	}
	return in, nil
}

// Case is the fixture as an unnamed case: its protocol and inputs, bounded
// by its pinned budget.
func (fx Fixture) Case() (Case, error) {
	sp, err := protogen.FromName(fx.Name)
	if err != nil {
		return Case{}, err
	}
	in, err := fx.InputValues()
	if err != nil {
		return Case{}, err
	}
	if len(in) != sp.N {
		return Case{}, fmt.Errorf("enginetest: fixture has %d inputs for %d processes", len(in), sp.N)
	}
	return Case{Protocol: fx.Name, N: sp.N, Inputs: in, Options: explore.Options{MaxConfigs: fx.MaxConfigs}}, nil
}

// SaveFixture writes fx as indented JSON, creating parent directories.
func SaveFixture(path string, fx Fixture) error {
	raw, err := json.MarshalIndent(fx, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// LoadFixture reads one fixture and validates that it decodes to a case.
func LoadFixture(path string) (Fixture, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Fixture{}, err
	}
	var fx Fixture
	if err := json.Unmarshal(raw, &fx); err != nil {
		return Fixture{}, fmt.Errorf("enginetest: %s: %w", path, err)
	}
	if _, err := fx.Case(); err != nil {
		return Fixture{}, fmt.Errorf("enginetest: %s: %w", path, err)
	}
	return fx, nil
}

// LoadDir loads every *.json fixture in dir, sorted by filename so corpus
// iteration order is stable.
func LoadDir(dir string) ([]string, []Fixture, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	fixtures := make([]Fixture, 0, len(names))
	for _, n := range names {
		fx, err := LoadFixture(filepath.Join(dir, n))
		if err != nil {
			return nil, nil, err
		}
		fixtures = append(fixtures, fx)
	}
	return names, fixtures, nil
}
