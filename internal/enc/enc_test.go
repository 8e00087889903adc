package enc

import (
	"strings"
	"testing"
	"testing/quick"
)

// escaped is AppendEscaped into a fresh buffer.
func escaped(s string) string { return string(AppendEscaped(nil, s)) }

// The field encoders write exactly these bytes: the state keys pinned by
// the protocols package were minted from them.
func TestAppendEncodings(t *testing.T) {
	for _, tc := range []struct{ got, want string }{
		{string(AppendInt(nil, -12)), "-12|"},
		{string(AppendInt(nil, 0)), "0|"},
		{string(AppendInt([]byte("x"), 255)), "x255|"},
		{string(AppendBool(nil, true)), "1|"},
		{string(AppendBool([]byte("3|"), false)), "3|0|"},
		{escaped("plain"), "plain"},
		{escaped(""), ""},
		{string(AppendEscaped([]byte("x"), `a|b,c\d`)), `xa\pb\cc\\d`},
	} {
		if tc.got != tc.want {
			t.Errorf("encoded %q, want %q", tc.got, tc.want)
		}
	}
}

func TestEscapeRemovesSeparators(t *testing.T) {
	in := "a|b,c\\d"
	if out := escaped(in); strings.ContainsAny(out, Sep+listSep) {
		t.Errorf("AppendEscaped(%q) = %q still contains a separator", in, out)
	}
}

func TestEscapeInjective(t *testing.T) {
	// Distinct strings must have distinct escapings; probe with quick.
	f := func(a, b string) bool { return a == b || escaped(a) != escaped(b) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEscapeTrickyPairs(t *testing.T) {
	// Pairs that naive escaping confuses.
	for _, p := range [][2]string{{"a|b", `a\pb`}, {"a,b", `a\cb`}, {`a\`, `a\\`}, {"|", `\p`}} {
		if escaped(p[0]) == escaped(p[1]) {
			t.Errorf("collision: %q and %q both escape to %q", p[0], p[1], escaped(p[0]))
		}
	}
}

func TestCompositeKeyUnambiguous(t *testing.T) {
	// Two different field splits must never produce equal keys.
	if a, b := fields("ab", "c"), fields("a", "bc"); a == b {
		t.Errorf("field boundary ambiguity: %q", a)
	}
}

// fields is the key of two escaped string fields, each Sep-terminated: the
// shape of Message.Key's body field after its integer fields.
func fields(s1, s2 string) string {
	k := append(AppendEscaped(nil, s1), Sep...)
	return string(append(AppendEscaped(k, s2), Sep...))
}
