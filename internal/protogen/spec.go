package protogen

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"github.com/flpsim/flp/internal/model"
)

// NamePrefix marks protocol names owned by this package. The registry
// routes every name with this prefix through FromName.
const NamePrefix = "gen:"

// SpecVersion is the format version stamped into every Spec; bumping it
// invalidates old encoded names and fixtures loudly instead of silently
// reinterpreting them.
const SpecVersion = 1

// Template names.
const (
	TemplateTable = "table"
	TemplateBenOr = "benor"
)

// Decision is a transition's effect on the output register. Writes respect
// the write-once register: a decision action on a decided state is a no-op.
type Decision uint8

const (
	// DecideNone leaves the output register alone.
	DecideNone Decision = iota
	// DecideZero writes 0.
	DecideZero
	// DecideOne writes 1.
	DecideOne
	// DecideInput writes the process's own input bit.
	DecideInput
	// DecideReg writes the parity of the process's register.
	DecideReg
	decisionCount // sentinel for validation and generation
)

// Send targets. Non-negative targets name a fixed process; the negative
// values are resolved relative to the stepping process at send time.
const (
	// TargetAll broadcasts to every process, the sender included (the
	// paper's atomic broadcast capability).
	TargetAll = -1
	// TargetOthers broadcasts to every process but the sender.
	TargetOthers = -2
	// TargetSelf sends to the stepping process itself.
	TargetSelf = -3
	// TargetNext sends to process (p+1) mod N — ring traffic, a shape no
	// hand-written registry protocol exercises.
	TargetNext = -4
)

// Send is one message emission: a target (fixed pid or relative constant)
// and an alphabet symbol index.
type Send struct {
	Target int `json:"t"`
	Sym    int `json:"s"`
}

// Transition is one entry of a "table" spec: the effect of (phase,
// register, received symbol) on the stepping process. Sends are permitted
// only when Next strictly exceeds the entry's phase — the invariant that
// bounds total message production and keeps every generated protocol's
// reachable configuration graph finite.
type Transition struct {
	// Next is the successor phase; Validate requires phase ≤ Next ≤ Phases.
	Next int `json:"n"`
	// Reg is the successor register value.
	Reg int `json:"r"`
	// Decide is the output-register action.
	Decide Decision `json:"d,omitempty"`
	// Sends are the messages emitted by this transition.
	Sends []Send `json:"m,omitempty"`
}

// Dials are the generation parameters Derive draws a Spec from. They are
// recorded (normalized) in derived Specs so names can encode (seed, dials)
// compactly instead of the whole table.
type Dials struct {
	// Template selects the protocol family: "table" or "benor".
	Template string `json:"tmpl"`
	// N is the process count, clamped to [2, 6].
	N int `json:"n"`
	// Phases is the table template's active phase count, clamped to [1, 5].
	Phases int `json:"p,omitempty"`
	// Regs is the per-process register range, clamped to [1, 3].
	Regs int `json:"r,omitempty"`
	// Alphabet is the message symbol count, clamped to [1, 4].
	Alphabet int `json:"a,omitempty"`
	// Density is the percentage of table entries that are active (the
	// rest are inert), clamped to [0, 100].
	Density int `json:"dn,omitempty"`
	// MaxSends bounds the messages one transition may emit, clamped to
	// [0, 3].
	MaxSends int `json:"ms,omitempty"`
	// DecShape biases decision rules: 0 mixed, 1 input-driven, 2
	// constant, 3 register-driven. Clamped to [0, 3].
	DecShape int `json:"ds,omitempty"`
	// MaxRound caps the "benor" template's rounds, clamped to [1, 4].
	MaxRound int `json:"mr,omitempty"`
}

// DefaultDials are the dials flpcheck -genseed and the fuzz harness start
// from: a mid-density table protocol for n processes.
func DefaultDials(n int) Dials {
	return Dials{
		Template: TemplateTable,
		N:        n,
		Phases:   3,
		Regs:     2,
		Alphabet: 2,
		Density:  65,
		MaxSends: 2,
		DecShape: 0,
		MaxRound: 2,
	}
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// normalized clamps every dial into its documented range. Derive applies
// it first, and records the normalized dials in the Spec, so the
// (seed, dials) → Spec map is total and name round-trips are exact.
func (d Dials) normalized() Dials {
	if d.Template != TemplateBenOr {
		d.Template = TemplateTable
	}
	d.N = clamp(d.N, 2, 6)
	d.Phases = clamp(d.Phases, 1, 5)
	d.Regs = clamp(d.Regs, 1, 3)
	d.Alphabet = clamp(d.Alphabet, 1, 4)
	d.Density = clamp(d.Density, 0, 100)
	d.MaxSends = clamp(d.MaxSends, 0, 3)
	d.DecShape = clamp(d.DecShape, 0, 3)
	d.MaxRound = clamp(d.MaxRound, 1, 4)
	return d
}

// Spec is a fully explicit generated protocol: everything Step needs, in
// serializable form. A Spec produced by Derive additionally records its
// (Seed, Dials) provenance, which Name exploits for a compact encoding;
// editing a Spec by hand or through the shrinker clears the provenance
// (the edited table no longer follows from the seed).
type Spec struct {
	// V is the format version; Validate rejects anything but SpecVersion.
	V int `json:"v"`
	// Template is "table" or "benor".
	Template string `json:"tmpl"`
	// N is the process count.
	N int `json:"n"`
	// Seed is the generation seed. Meaningful only when Dials is non-nil.
	Seed uint64 `json:"seed,omitempty"`
	// Dials, when non-nil, asserts this Spec is exactly
	// Derive(Seed, *Dials). Shrunk or hand-built specs leave it nil.
	Dials *Dials `json:"dials,omitempty"`

	// Table template fields.
	Phases   int          `json:"phases,omitempty"`
	Regs     int          `json:"regs,omitempty"`
	Alphabet int          `json:"alphabet,omitempty"`
	Table    []Transition `json:"table,omitempty"`

	// BenOr template fields: round cap and the three thresholds (how many
	// round-r reports to await; how many matching reports propose a value;
	// how many matching proposals decide it) that the registry's Ben-Or,
	// protocols.BenOrDeterministic, runs with. Classic Ben-Or is
	// WaitNeed = N-f, ProposeNeed = ⌊N/2⌋+1, DecideNeed = f+1; the
	// generator draws them freely from [1, N], so many seeds violate
	// agreement or block — deliberately, the engines must agree on those
	// protocols too.
	MaxRound    int `json:"maxRound,omitempty"`
	WaitNeed    int `json:"waitNeed,omitempty"`
	ProposeNeed int `json:"proposeNeed,omitempty"`
	DecideNeed  int `json:"decideNeed,omitempty"`
}

// tableIndex locates the transition for (phase, reg, sym), where sym 0 is
// the null delivery and sym k+1 is alphabet symbol k.
func (sp Spec) tableIndex(phase, reg, sym int) int {
	return (phase*sp.Regs+reg)*(sp.Alphabet+1) + sym
}

// Validate checks every invariant the protocol implementations and the
// conformance harness rely on; see the package comment for the list.
func (sp Spec) Validate() error {
	if sp.V != SpecVersion {
		return fmt.Errorf("protogen: spec version %d, want %d", sp.V, SpecVersion)
	}
	if sp.N < 2 || sp.N > 16 {
		return fmt.Errorf("protogen: N=%d out of range [2, 16]", sp.N)
	}
	switch sp.Template {
	case TemplateTable:
		return sp.validateTable()
	case TemplateBenOr:
		return sp.validateBenOr()
	default:
		return fmt.Errorf("protogen: unknown template %q", sp.Template)
	}
}

func (sp Spec) validateTable() error {
	if sp.Phases < 1 || sp.Phases > 8 {
		return fmt.Errorf("protogen: Phases=%d out of range [1, 8]", sp.Phases)
	}
	if sp.Regs < 1 || sp.Regs > 8 {
		return fmt.Errorf("protogen: Regs=%d out of range [1, 8]", sp.Regs)
	}
	if sp.Alphabet < 1 || sp.Alphabet > 8 {
		return fmt.Errorf("protogen: Alphabet=%d out of range [1, 8]", sp.Alphabet)
	}
	want := sp.Phases * sp.Regs * (sp.Alphabet + 1)
	if len(sp.Table) != want {
		return fmt.Errorf("protogen: table has %d entries, want Phases·Regs·(Alphabet+1) = %d", len(sp.Table), want)
	}
	for h := 0; h < sp.Phases; h++ {
		for r := 0; r < sp.Regs; r++ {
			for s := 0; s <= sp.Alphabet; s++ {
				tr := sp.Table[sp.tableIndex(h, r, s)]
				if tr.Next < h || tr.Next > sp.Phases {
					return entryError(h, r, s, "Next=%d out of range [%d, %d]", tr.Next, h, sp.Phases)
				}
				if tr.Reg < 0 || tr.Reg >= sp.Regs {
					return entryError(h, r, s, "Reg=%d out of range [0, %d)", tr.Reg, sp.Regs)
				}
				if tr.Decide >= decisionCount {
					return entryError(h, r, s, "unknown decision %d", tr.Decide)
				}
				if len(tr.Sends) > 0 && tr.Next <= h {
					return entryError(h, r, s, "sends without a phase advance would unbound the message buffer")
				}
				for _, sd := range tr.Sends {
					if sd.Sym < 0 || sd.Sym >= sp.Alphabet {
						return entryError(h, r, s, "send symbol %d out of range [0, %d)", sd.Sym, sp.Alphabet)
					}
					if sd.Target < TargetNext || sd.Target >= sp.N {
						return entryError(h, r, s, "send target %d invalid for N=%d", sd.Target, sp.N)
					}
				}
			}
		}
	}
	return nil
}

// entryError reports a failed check on the table entry (phase, reg, sym).
// The entry's label is formatted only here, on failure: validateTable runs
// once per resolution of a gen: name, and a valid table must cost no
// allocation.
func entryError(phase, reg, sym int, format string, args ...any) error {
	at := fmt.Sprintf("entry (phase %d, reg %d, sym %d)", phase, reg, sym)
	return fmt.Errorf("protogen: %s: %s", at, fmt.Sprintf(format, args...))
}

func (sp Spec) validateBenOr() error {
	if sp.MaxRound < 1 || sp.MaxRound > 8 {
		return fmt.Errorf("protogen: MaxRound=%d out of range [1, 8]", sp.MaxRound)
	}
	for _, th := range []struct {
		name string
		v    int
	}{{"WaitNeed", sp.WaitNeed}, {"ProposeNeed", sp.ProposeNeed}, {"DecideNeed", sp.DecideNeed}} {
		if th.v < 1 || th.v > sp.N {
			return fmt.Errorf("protogen: %s=%d out of range [1, %d]", th.name, th.v, sp.N)
		}
	}
	return nil
}

// NewTable realizes a "table" spec as a model.Protocol, validating it
// first. A "benor" spec runs the registry's Ben-Or at the spec's
// thresholds, which package protocols builds: resolve the spec's Name
// there (protocols.Lookup), which serves both templates.
func NewTable(sp Spec) (model.Protocol, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if sp.Template != TemplateTable {
		return nil, fmt.Errorf("protogen: NewTable given a %q spec", sp.Template)
	}
	return &tableProto{sp: sp, name: sp.Name()}, nil
}

// Name encodes the whole spec into a protocol name the registry can
// resolve: "gen:d1:<seed>:<dials>" for derived specs (FromName re-derives
// the table), "gen:j1:<base64url JSON>" for arbitrary ones. Both forms
// round-trip exactly through FromName — the distributed engine's workers
// rebuild protocols from nothing but this string.
func (sp Spec) Name() string {
	if sp.Dials != nil {
		return fmt.Sprintf("%sd1:%d:%s", NamePrefix, sp.Seed, encodeDials(*sp.Dials))
	}
	raw, err := json.Marshal(&sp)
	if err != nil {
		// A Spec is plain data; Marshal cannot fail on one.
		panic(fmt.Sprintf("protogen: marshal spec: %v", err))
	}
	return NamePrefix + "j1:" + base64.RawURLEncoding.EncodeToString(raw)
}

// encodeDials renders dials as a compact, order-fixed field list.
func encodeDials(d Dials) string {
	return fmt.Sprintf("t%s.n%d.p%d.r%d.a%d.dn%d.ms%d.ds%d.mr%d",
		d.Template, d.N, d.Phases, d.Regs, d.Alphabet, d.Density, d.MaxSends, d.DecShape, d.MaxRound)
}

func decodeDials(s string) (Dials, error) {
	var d Dials
	fields := strings.Split(s, ".")
	if len(fields) != 9 {
		return d, fmt.Errorf("protogen: dial encoding has %d fields, want 9", len(fields))
	}
	var err error
	get := func(f, prefix string) int {
		if err != nil {
			return 0
		}
		v, ok := strings.CutPrefix(f, prefix)
		if !ok {
			err = fmt.Errorf("protogen: dial field %q missing prefix %q", f, prefix)
			return 0
		}
		n, perr := strconv.Atoi(v)
		if perr != nil {
			err = fmt.Errorf("protogen: dial field %q: %v", f, perr)
		}
		return n
	}
	tmpl, ok := strings.CutPrefix(fields[0], "t")
	if !ok {
		return d, fmt.Errorf("protogen: dial field %q missing prefix \"t\"", fields[0])
	}
	d.Template = tmpl
	d.N = get(fields[1], "n")
	d.Phases = get(fields[2], "p")
	d.Regs = get(fields[3], "r")
	d.Alphabet = get(fields[4], "a")
	d.Density = get(fields[5], "dn")
	d.MaxSends = get(fields[6], "ms")
	d.DecShape = get(fields[7], "ds")
	d.MaxRound = get(fields[8], "mr")
	return d, err
}

// FromName inverts Spec.Name. It validates the decoded spec, so a
// resolved name is always safe to instantiate.
func FromName(name string) (Spec, error) {
	rest, ok := strings.CutPrefix(name, NamePrefix)
	if !ok {
		return Spec{}, fmt.Errorf("protogen: name %q lacks prefix %q", name, NamePrefix)
	}
	switch {
	case strings.HasPrefix(rest, "d1:"):
		parts := strings.SplitN(rest[len("d1:"):], ":", 2)
		if len(parts) != 2 {
			return Spec{}, fmt.Errorf("protogen: malformed derived name %q", name)
		}
		seed, err := strconv.ParseUint(parts[0], 10, 64)
		if err != nil {
			return Spec{}, fmt.Errorf("protogen: seed in %q: %v", name, err)
		}
		dials, err := decodeDials(parts[1])
		if err != nil {
			return Spec{}, err
		}
		sp := Derive(seed, dials)
		return sp, nil
	case strings.HasPrefix(rest, "j1:"):
		raw, err := base64.RawURLEncoding.DecodeString(rest[len("j1:"):])
		if err != nil {
			return Spec{}, fmt.Errorf("protogen: base64 in %q: %v", name, err)
		}
		var sp Spec
		if err := json.Unmarshal(raw, &sp); err != nil {
			return Spec{}, fmt.Errorf("protogen: spec JSON in name: %v", err)
		}
		if err := sp.Validate(); err != nil {
			return Spec{}, err
		}
		return sp, nil
	default:
		return Spec{}, fmt.Errorf("protogen: unknown name form %q", name)
	}
}

// IsGenerated reports whether a protocol name belongs to this package.
func IsGenerated(name string) bool { return strings.HasPrefix(name, NamePrefix) }
