package model

import (
	"hash/fnv"
	"strings"
	"testing"
)

// TestEqualSettlesFingerprintHitsOnFields forces every pair to one
// fingerprint, so Equal's answer comes from the field comparison alone: a
// process count, a state key, a message or a multiplicity that differs
// must each make it false, and equal fields true.
func TestEqualSettlesFingerprintHitsOnFields(t *testing.T) {
	var empty Buffer
	one := empty.with(nil, []msgRec{{msg: Message{To: 0, From: 1, Body: "v"}}})
	two := one.with(nil, []msgRec{{msg: Message{To: 0, From: 1, Body: "v"}}})
	other := empty.with(nil, []msgRec{{msg: Message{To: 0, From: 1, Body: "w"}}})
	cfg := func(buf Buffer, keys ...string) *Config {
		c := &Config{buf: buf}
		for _, k := range keys {
			c.procs = append(c.procs, proc{skey: k})
		}
		c.hash.Store(42)
		return c
	}
	base := cfg(one, "a", "b")
	for _, tc := range []struct {
		name string
		o    *Config
		want bool
	}{
		{"same fields", cfg(one, "a", "b"), true},
		{"another process count", cfg(one, "a", "b", ""), false},
		{"another state key", cfg(one, "a", "c"), false},
		{"another message", cfg(other, "a", "b"), false},
		{"another multiplicity", cfg(two, "a", "b"), false},
	} {
		if got := base.Equal(tc.o); got != tc.want {
			t.Errorf("%s: Equal = %v under one fingerprint, want %v", tc.name, got, tc.want)
		}
	}
}

// TestHashStreamsMultiByteFields holds the streamed Hash to the standard
// library's FNV-1a of KeyBytes on the field shapes the registry protocols
// rarely reach: state keys and a buffer field long enough for two-byte
// uvarint length prefixes, and multiplicities of one, two and three
// decimal digits.
func TestHashStreamsMultiByteFields(t *testing.T) {
	var buf Buffer
	for _, m := range []Message{{To: 0, From: 1, Body: "a"}, {To: 1, From: 0, Body: strings.Repeat("b", 150)}} {
		for i := 0; i < 130; i++ {
			buf = buf.with(nil, []msgRec{{msg: m}})
			fresh := func() *Config {
				return &Config{procs: []proc{{skey: strings.Repeat("s", 200)}, {skey: ""}}, buf: buf}
			}
			cold := fresh().Hash()
			keyed := fresh()
			h := fnv.New64a()
			h.Write(keyed.KeyBytes())
			if want := h.Sum64(); cold != want || keyed.Hash() != want {
				t.Fatalf("%d copies of %s: Hash() = %#x cold, %#x keyed; FNV-1a(KeyBytes()) = %#x", i+1, m, cold, keyed.Hash(), want)
			}
		}
	}
}
