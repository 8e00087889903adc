package enc

import (
	"strings"
	"testing"
)

// FuzzEscapeInjective drives the invariant Message.Key rests on:
// AppendEscaped never emits a separator and never collides on distinct
// inputs, including inputs that share a prefix or suffix an escaper could
// confuse.
func FuzzEscapeInjective(f *testing.F) {
	seeds := []string{"", "a", "|", ",", "\\", "a|b", "x,y", "a\\|b", "\\p", "\\c", "||", "\\\\"}
	for _, a := range seeds {
		for _, b := range seeds {
			f.Add(a, b)
		}
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		ea, eb := escaped(a), escaped(b)
		if strings.ContainsAny(ea, Sep+listSep) {
			t.Fatalf("AppendEscaped(%q) = %q contains a separator", a, ea)
		}
		if (a == b) != (ea == eb) {
			t.Fatalf("AppendEscaped(%q) = %q, AppendEscaped(%q) = %q", a, ea, b, eb)
		}
	})
}

// FuzzBuilderFieldBoundaries checks that a key built from two
// AppendEscaped+Sep fields never confuses their boundary, whatever strings
// the fields hold.
func FuzzBuilderFieldBoundaries(f *testing.F) {
	f.Add("a", "bc", "ab", "c")
	f.Add("", "x", "x", "")
	f.Add("p|q", "r", "p", "q|r")
	f.Add("a\\", "|b", "a", "\\|b")
	f.Fuzz(func(t *testing.T, a1, a2, b1, b2 string) {
		if a1 == b1 && a2 == b2 {
			return
		}
		if ka := fields(a1, a2); ka == fields(b1, b2) {
			t.Fatalf("field-boundary collision: (%q,%q) and (%q,%q) both key to %q", a1, a2, b1, b2, ka)
		}
	})
}
