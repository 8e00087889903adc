package enginetest

import (
	"sync"
	"testing"

	"github.com/flpsim/flp/internal/explore"
)

// Backend is one engine as the package that owns it builds it: it answers
// case c by calling visit for each configuration it admits, in admission
// order, and returning what explore.Explore returns plus its error —
// ErrShort or ErrRefused where its contract allows them (Diff).
type Backend func(t *testing.T, c Case, visit explore.Visit) (complete bool, visited int, err error)

// Suite runs every case through backend and holds each answer to the
// case's reference stream (Diff), computed once per test binary: every
// suite walks the same table.
func Suite(t *testing.T, backend Backend) { SuiteOn(t, Cases(t), backend) }

// SuiteOn is Suite over cases, a part of the table.
func SuiteOn(t *testing.T, cases []Case, backend Backend) {
	for _, c := range cases {
		t.Run(c.Name, func(t *testing.T) {
			c.ref.once.Do(func() { c.ref.s, c.ref.err = Reference(c) })
			if c.ref.err != nil {
				t.Fatal(c.ref.err)
			}
			got, err := Record(c.StopAt, func(visit explore.Visit) (bool, int, error) { return backend(t, c, visit) })
			if err := Diff(c, c.ref.s, got, err); err != nil {
				t.Error(err)
			}
		})
	}
}

// ValencyBackend answers a valency query on case c's root.
type ValencyBackend func(t *testing.T, c Case) Valency

// ValencySuite runs every case a valency query can name — an initial
// configuration, no event filter, no stop — through backend and holds each
// answer to explore.Classify's, inline (DiffValency).
func ValencySuite(t *testing.T, backend ValencyBackend) {
	for _, c := range Cases(t) {
		if len(c.Prefix) > 0 || !c.Atlasable() {
			continue
		}
		t.Run(c.Name, func(t *testing.T) {
			pr, root := c.MustResolve(t)
			opt := c.Options
			opt.Workers = 1
			want := ValencyOf(explore.Classify(pr, root, opt))
			if err := DiffValency(pr, root, want, backend(t, c)); err != nil {
				t.Error(err)
			}
		})
	}
}

// reference is a table case's memo of Reference, for Suite.
type reference struct {
	once sync.Once
	s    Stream
	err  error
}
