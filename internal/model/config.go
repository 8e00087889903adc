package model

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync/atomic"
)

// Config is a configuration of the system: the internal state of each
// process together with the contents of the message buffer (Section 2).
// Configurations are immutable once constructed; Apply produces new
// configurations.
//
// A configuration has one canonical encoding, KeyBytes: its field sequence
// (one key per process state, then the buffer key), every field
// length-prefixed with a uvarint. Length prefixes delimit the fields, so
// the encoding is injective, and two configurations have equal KeyBytes
// exactly when every process state has the same key and the buffers hold
// the same multiset — the paper's definition of the same configuration
// (modeltest.SameState, against which the tests hold the encoding). The
// interner, the atlas store and the distexplore wire identify a
// configuration by these bytes, and the hash contract is
// Hash() == FNV-1a(KeyBytes()), in process and on the wire alike. The
// exploration hot path never builds them: Hash streams FNV-1a over the
// fields the bytes are made of, and Equal compares those fields, so a
// configuration that is only stepped, fingerprinted and deduplicated costs
// no key bytes. A step's Draft does the same before the Config exists, so a
// step that duplicates a known configuration costs no Config at all.
//
// The key and the fingerprint are computed lazily and cached through
// atomics, so a Config may be shared freely across goroutines (the parallel
// explorer does). Concurrent computations of either are idempotent; the
// last store wins and all stores are equal.
//
// The per-process state keys are not lazy: every process's State.Key() is
// built once, by whoever put the state there (Initial, or the step that
// produced it), and travels with the state from parent to child. A step
// changes one process, so a child costs one State.Key() call and its
// configuration key is N appends of strings it already holds.
type Config struct {
	procs []proc
	buf   Buffer
	bkey  atomic.Pointer[[]byte] // lazily computed canonical key
	hash  atomic.Uint64          // lazily computed fingerprint; 0 = unset
}

// proc is one process of a configuration: its state and that state's key
// (skey == state.Key(), always).
type proc struct {
	state State
	skey  string
}

// Initial returns the initial configuration of pr for the given input
// assignment: every process in its initial state and an empty buffer.
func Initial(pr Protocol, in Inputs) (*Config, error) {
	n := pr.N()
	if n < 2 {
		return nil, fmt.Errorf("model: protocol %q has N=%d, need N ≥ 2", pr.Name(), n)
	}
	if len(in) != n {
		return nil, fmt.Errorf("model: %d inputs for %d processes", len(in), n)
	}
	procs := make([]proc, n)
	for p := 0; p < n; p++ {
		if !in[p].Valid() {
			return nil, fmt.Errorf("model: invalid input %d for process %d", in[p], p)
		}
		s := pr.Init(PID(p), in[p])
		if s == nil {
			return nil, fmt.Errorf("model: protocol %q Init(%d) returned nil state", pr.Name(), p)
		}
		if s.Output() != None {
			return nil, fmt.Errorf("model: protocol %q starts process %d already decided; the output register must start at b", pr.Name(), p)
		}
		procs[p] = proc{s, s.Key()}
	}
	return &Config{procs: procs}, nil
}

// MustInitial is Initial but panics on error, for tests and examples with
// known-good arguments.
func MustInitial(pr Protocol, in Inputs) *Config {
	c, err := Initial(pr, in)
	if err != nil {
		panic(err)
	}
	return c
}

// N returns the number of processes.
func (c *Config) N() int { return len(c.procs) }

// State returns the internal state of process p.
func (c *Config) State(p PID) State { return c.procs[p].state }

// StateKey returns State(p).Key(), the key c carries for process p's
// state, without building it.
func (c *Config) StateKey(p PID) string { return c.procs[p].skey }

// Buffer returns the message buffer. Callers must not mutate it; use Apply
// to take steps.
func (c *Config) Buffer() *Buffer { return &c.buf }

// Output returns the output register content of process p.
func (c *Config) Output(p PID) Output { return c.procs[p].state.Output() }

// DecisionValues returns the set of decision values present in c: the
// values v such that some process is in a decision state with y_p = v.
// A partially correct protocol never reaches a configuration where this has
// more than one element (condition 1 of partial correctness).
func (c *Config) DecisionValues() []Value {
	var seen0, seen1 bool
	for i := range c.procs {
		switch c.procs[i].state.Output() {
		case Decided0:
			seen0 = true
		case Decided1:
			seen1 = true
		}
	}
	var vs []Value
	if seen0 {
		vs = append(vs, V0)
	}
	if seen1 {
		vs = append(vs, V1)
	}
	return vs
}

// Decided reports whether any process has decided, and if exactly the one
// value v is present returns it. If both values are present (an agreement
// violation) it returns ok=false with decided=true.
func (c *Config) Decided() (decided bool, v Value, ok bool) {
	vs := c.DecisionValues()
	switch len(vs) {
	case 0:
		return false, 0, false
	case 1:
		return true, vs[0], true
	default:
		return true, 0, false
	}
}

// DecidedCount returns how many processes have decided.
func (c *Config) DecidedCount() int {
	n := 0
	for i := range c.procs {
		if c.procs[i].state.Output().Decided() {
			n++
		}
	}
	return n
}

// KeyBytes returns the canonical key of the configuration: each field (one
// per process state, then the buffer key) length-prefixed with a uvarint.
// Two configurations have equal keys iff they are the same system state.
// The returned slice is cached and must not be modified. KeyBytes is safe
// for concurrent use.
func (c *Config) KeyBytes() []byte {
	if p := c.bkey.Load(); p != nil {
		return *p
	}
	b := c.buildKeyBytes()
	c.bkey.Store(&b)
	return b
}

// AppendKey appends the binary canonical key of the configuration to dst
// and returns the extended slice. When the key is already cached this is a
// single copy; otherwise the key is materialized (and cached) first.
func (c *Config) AppendKey(dst []byte) []byte {
	return append(dst, c.KeyBytes()...)
}

// appendKeyField appends one length-prefixed field of a binary key.
func appendKeyField(dst []byte, field string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(field)))
	return append(dst, field...)
}

// uvarintLen returns the encoded size of binary.AppendUvarint(nil, v).
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// buildKeyBytes materializes the binary key from the carried state keys
// and the buffer's carried message keys: no State.Key() or Message.Key()
// call, one allocation.
func (c *Config) buildKeyBytes() []byte {
	bufLen := c.buf.KeyLen()
	size := uvarintLen(uint64(bufLen)) + bufLen
	for i := range c.procs {
		k := c.procs[i].skey
		size += uvarintLen(uint64(len(k))) + len(k)
	}
	b := make([]byte, 0, size)
	for i := range c.procs {
		b = appendKeyField(b, c.procs[i].skey)
	}
	b = binary.AppendUvarint(b, uint64(bufLen))
	b = c.buf.AppendKey(b)
	return b
}

// FNV-1a constants, used for the configuration fingerprint.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// fnvAdd folds the bytes of b into the FNV-1a state h.
func fnvAdd[T string | []byte](h uint64, b T) uint64 {
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= fnvPrime64
	}
	return h
}

// fnvByte folds one byte into the FNV-1a state h.
func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

// fnvUvarint folds the bytes of binary.AppendUvarint(nil, v) into h.
func fnvUvarint(h, v uint64) uint64 {
	for v >= 0x80 {
		h = fnvByte(h, byte(v)|0x80)
		v >>= 7
	}
	return fnvByte(h, byte(v))
}

// fingerprint maps an FNV-1a value to a fingerprint, reserving 0 as the
// "unset" sentinel of the cache.
func fingerprint(h uint64) uint64 {
	if h == 0 {
		return fnvOffset64
	}
	return h
}

// KeyHash returns the fingerprint of the configuration whose canonical key
// is key: Hash() == KeyHash(KeyBytes()) for every configuration. It is for
// holders of persisted keys that have no Config to ask.
func KeyHash(key []byte) uint64 { return fingerprint(fnvAdd(fnvOffset64, key)) }

// Hash returns a 64-bit fingerprint of the configuration: the FNV-1a hash
// of its binary canonical key, streamed over the fields the key is built
// from — per process uvarint(len(skey)) and skey, then the buffer field's
// length and, per entry, count, 'x', message key and ';' — so the key
// itself is never built here, cached or not. Equal configurations always
// have equal hashes; unequal configurations collide only with fingerprint
// probability, and every user of the hash (Equal, and every table built on
// Index) confirms candidate matches against the configuration's fields or
// canonical key, so a collision can never conflate two distinct
// system states. Hash is cached and safe for concurrent use.
func (c *Config) Hash() uint64 {
	if h := c.hash.Load(); h != 0 {
		return h
	}
	h := fingerprint(c.buf.hashKey(fnvUvarint(c.keys().hash(), uint64(c.buf.KeyLen()))))
	c.hash.Store(h)
	return h
}

// Equal reports whether two configurations are the same system state. The
// cached fingerprints are compared first; a fingerprint match is settled
// on the fields the key encodes — every process's state key and the
// buffer's multiset (modeltest.SameState) — so no key is built here.
func (c *Config) Equal(o *Config) bool {
	if c == o {
		return true
	}
	return c.Hash() == o.Hash() && c.keys().equal(o.keys()) && c.buf.Equal(&o.buf)
}

// procKeys is the process half of a configuration's identity: the state
// keys of procs, except that process p's is skey when p ≥ 0. A Config's are
// its own; a Draft's are its parent's with the stepped process replaced.
type procKeys struct {
	procs []proc
	p     int
	skey  string
}

func (c *Config) keys() procKeys { return procKeys{procs: c.procs, p: -1} }

// key returns process i's state key.
func (k procKeys) key(i int) string {
	if i == k.p {
		return k.skey
	}
	return k.procs[i].skey
}

// hash folds the process fields of the canonical key — per process
// uvarint(len(skey)) and skey — into a fresh FNV-1a state.
func (k procKeys) hash() uint64 {
	h := fnvOffset64
	for i := range k.procs {
		s := k.key(i)
		h = fnvAdd(fnvUvarint(h, uint64(len(s))), s)
	}
	return h
}

// equal reports whether k and o are the same process states.
func (k procKeys) equal(o procKeys) bool {
	if len(k.procs) != len(o.procs) {
		return false
	}
	for i := range k.procs {
		if k.key(i) != o.key(i) {
			return false
		}
	}
	return true
}

// String renders the configuration compactly for traces.
func (c *Config) String() string {
	var sb strings.Builder
	sb.WriteString("[")
	for p := range c.procs {
		if p > 0 {
			sb.WriteString(" ")
		}
		fmt.Fprintf(&sb, "p%d:y=%s", p, c.procs[p].state.Output())
	}
	fmt.Fprintf(&sb, " | buf:%d msg]", c.buf.Len())
	return sb.String()
}
