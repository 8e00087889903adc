package protocols_test

import (
	"strings"
	"testing"

	"github.com/flpsim/flp/internal/protocols"
	"github.com/flpsim/flp/internal/protogen"
)

// TestLookupGenerated pins the gen: passthrough: a generated protocol's
// name alone must resolve through the registry — that is the property the
// distributed engine's workers rely on to rebuild generated protocols.
func TestLookupGenerated(t *testing.T) {
	sp := protogen.Derive(42, protogen.DefaultDials(3))
	name := sp.Name()

	factory, ok := protocols.Lookup(name)
	if !ok {
		t.Fatalf("Lookup(%q) did not resolve", name)
	}
	pr, err := factory(sp.N)
	if err != nil {
		t.Fatalf("factory: %v", err)
	}
	if pr.Name() != name {
		t.Errorf("rebuilt protocol name %q, want %q", pr.Name(), name)
	}
	if pr.N() != sp.N {
		t.Errorf("rebuilt protocol N = %d, want %d", pr.N(), sp.N)
	}

	// A mismatched process count is a caller bug, not a silent resize.
	if _, err := factory(sp.N + 1); err == nil {
		t.Error("factory accepted a process count the spec does not carry")
	}

	// Malformed gen: names resolve to a factory (the prefix routes them)
	// but the factory reports the decode error.
	factory, ok = protocols.Lookup("gen:garbage")
	if !ok {
		t.Fatal("gen: prefix did not route to the passthrough")
	}
	if _, err := factory(3); err == nil {
		t.Error("malformed gen: name built a protocol")
	}

	// Non-generated names still hit the static table only.
	if _, ok := protocols.Lookup("no-such-protocol"); ok {
		t.Error("unknown plain name resolved")
	}
	if !strings.HasPrefix(name, protogen.NamePrefix) {
		t.Fatalf("generated name %q lacks the %q prefix", name, protogen.NamePrefix)
	}
}

// TestResolve holds the one door every front end resolves through: a
// process count below 2, an unknown name or a gen: name at a count it
// does not carry is an error, never a panic or a protocol built at that
// count; a gen: name with no count runs at its own.
func TestResolve(t *testing.T) {
	sp := protogen.Derive(42, protogen.DefaultDials(3))
	for _, tc := range []struct {
		name string
		n    int
		want string
	}{
		{"waitall", -1, "at least 2 processes"},
		{"waitall", 0, "at least 2 processes"},
		{"waitall", 1, "at least 2 processes"},
		{"paxos", 2, "paxos needs n ≥ 3"},
		{"no-such-protocol", 3, "unknown protocol"},
		{sp.Name(), 1, "at least 2 processes"},
		{sp.Name(), sp.N + 1, "is for n = 3"},
		{"gen:garbage", 0, "gen:"},
	} {
		pr, err := protocols.Resolve(tc.name, tc.n)
		if err == nil {
			t.Errorf("Resolve(%.20q, %d) built %s", tc.name, tc.n, pr.Name())
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Resolve(%.20q, %d): error %q does not say %q", tc.name, tc.n, err, tc.want)
		}
	}
	for _, n := range []int{0, sp.N} {
		pr, err := protocols.Resolve(sp.Name(), n)
		if err != nil || pr.N() != sp.N {
			t.Errorf("Resolve(gen name, %d) = %v, %v; want the spec's n = %d", n, pr, err, sp.N)
		}
	}
	if pr, err := protocols.Resolve("naivemajority", 4); err != nil || pr.N() != 4 {
		t.Errorf("Resolve(naivemajority, 4) = %v, %v", pr, err)
	}
}
