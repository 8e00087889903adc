package enc

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestBuilderFields(t *testing.T) {
	var b Builder
	got := b.Int(3).Uint8(1).Bool(true).Str("abc").String()
	want := "3|1|1|abc|"
	if got != want {
		t.Errorf("Builder = %q, want %q", got, want)
	}
}

func TestBuilderIntSlice(t *testing.T) {
	var b Builder
	got := b.IntSlice([]int{5, 2, 9}).String()
	if got != "5,2,9|" {
		t.Errorf("IntSlice = %q, want %q", got, "5,2,9|")
	}
	var empty Builder
	if got := empty.IntSlice(nil).String(); got != "|" {
		t.Errorf("empty IntSlice = %q, want %q", got, "|")
	}
}

func TestBuilderIntSetOrderIndependent(t *testing.T) {
	var a, b Builder
	a.IntSet(map[int]bool{3: true, 1: true, 2: true})
	b.IntSet(map[int]bool{2: true, 3: true, 1: true})
	if a.String() != b.String() {
		t.Errorf("IntSet encodings differ: %q vs %q", a.String(), b.String())
	}
	if a.String() != "1,2,3|" {
		t.Errorf("IntSet = %q, want %q", a.String(), "1,2,3|")
	}
}

func TestBuilderIntSetSkipsFalse(t *testing.T) {
	var b Builder
	b.IntSet(map[int]bool{1: true, 2: false, 3: true})
	if b.String() != "1,3|" {
		t.Errorf("IntSet with false entries = %q, want %q", b.String(), "1,3|")
	}
}

func TestBuilderStrSet(t *testing.T) {
	var b Builder
	b.StrSet(map[string]bool{"z": true, "a": true, "m": false})
	if b.String() != "a,z|" {
		t.Errorf("StrSet = %q, want %q", b.String(), "a,z|")
	}
}

func TestEscapeRemovesSeparators(t *testing.T) {
	in := "a|b,c\\d"
	out := Escape(in)
	if strings.Contains(out, Sep) {
		t.Errorf("Escape(%q) = %q still contains separator", in, out)
	}
	if strings.Contains(out, ",") {
		t.Errorf("Escape(%q) = %q still contains list separator", in, out)
	}
}

func TestEscapeInjective(t *testing.T) {
	// Distinct strings must have distinct escapings; probe with quick.
	f := func(a, b string) bool {
		if a == b {
			return true
		}
		return Escape(a) != Escape(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEscapeTrickyPairs(t *testing.T) {
	// Pairs that naive escaping confuses.
	pairs := [][2]string{
		{"a|b", "a\\pb"},
		{"a,b", "a\\cb"},
		{"a\\", "a\\\\"},
		{"|", "\\p"},
	}
	for _, p := range pairs {
		if Escape(p[0]) == Escape(p[1]) {
			t.Errorf("Escape collision: %q and %q both escape to %q", p[0], p[1], Escape(p[0]))
		}
	}
}

func TestCompositeKeyUnambiguous(t *testing.T) {
	// Two different field splits must never produce equal keys.
	var a, b Builder
	a.Str("ab").Str("c")
	b.Str("a").Str("bc")
	if a.String() == b.String() {
		t.Errorf("field boundary ambiguity: %q", a.String())
	}
}

// The append-style helpers write exactly what the Builder and Escape do.
func TestAppendHelpersMatchBuilder(t *testing.T) {
	f := func(i int, u uint8, v bool, s string) bool {
		var b Builder
		b.Int(i).Uint8(u).Bool(v).Str(Escape(s))
		got := AppendInt(nil, i)
		got = AppendInt(got, int(u))
		got = AppendBool(got, v)
		got = append(AppendEscaped(got, s), Sep...)
		return string(got) == b.String()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if got, want := string(AppendEscaped([]byte("x"), `a|b,c\d`)), `xa\pb\cc\\d`; got != want || Escape(`a|b,c\d`) != want[1:] {
		t.Errorf("AppendEscaped = %q, Escape = %q, want %q", got, Escape(`a|b,c\d`), want)
	}
	if Escape("plain") != "plain" {
		t.Errorf("Escape(plain) = %q", Escape("plain"))
	}
}
