package model

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
)

// Draft is a step taken but not yet built into a configuration: the
// parent, the process that stepped, its new state and that state's key,
// and the child's buffer entries, drafted in scratch memory. It has the
// child's fingerprint (Hash) and identity (Same) without the
// process slice, buffer entries, message records and Config that building
// the child costs (Build), so an engine can deduplicate a successor before
// it builds one, and a duplicate costs its protocol step and nothing more.
//
// Every step is taken in two halves and built by one function: move runs
// the protocol, place drafts the buffer, build makes the child. Apply,
// ApplyTraced and Expand build at once; a Drafter hands out the draft,
// which lives in the Drafter's memory until its next Draft or Reset.
type Draft struct {
	parent *Config
	state  State
	skey   string
	p      PID
	bufDraft
	hash uint64 // Hash, once computed; 0 = not yet
}

// bufDraft is the buffer half of a step: the child's buffer entries, the
// messages sent and the keys of those the parent's buffer lacks.
type bufDraft struct {
	entries []draftEntry // in key order
	keyLen  int          // the length of the child buffer's key
	sends   []Message    // in send order, as Protocol.Step returned them
	spans   []keySpan    // spans[j] locates the key of sends[j] in msgKeys
	msgKeys []byte
}

// draftEntry is one entry of a drafted buffer: count copies of the message
// of parent entry at, or for at < 0 of sends[-1-at], which the parent's
// buffer lacks.
type draftEntry struct{ at, count int32 }

// keySpan is where a message's key lies in msgKeys; the zero span marks a
// message the parent's buffer holds, whose key is the parent's.
type keySpan struct{ k0, k1 int32 }

// Drafter is the memory a draft lives in: the draft, its buffer entries,
// key spans and keys. Once it has grown to the largest step, drafting
// allocates nothing beyond what Protocol.Step and State.Key allocate. The
// zero Drafter is ready to use; a Drafter is not safe for concurrent use.
type Drafter struct {
	d   Draft // the last draft made
	mem draftMem
}

// draftMem is the memory of drafted buffers: entries, key spans and keys.
type draftMem struct {
	entries []draftEntry
	spans   []keySpan
	keys    []byte
}

// Reset recycles the drafter's memory. Every draft it has made is invalid
// afterwards, and the drafter keeps none of its configurations or states
// alive.
func (dr *Drafter) Reset() {
	dr.d = Draft{}
	dr.mem = draftMem{dr.mem.entries[:0], dr.mem.spans[:0], dr.mem.keys[:0]}
}

// Draft steps e on c as Expand does and returns the step's draft, valid
// until the drafter's next Draft or Reset, or nil when e is a null event
// that is a no-op on c (IsNoOp). It panics where Expand does.
func (dr *Drafter) Draft(pr Protocol, c *Config, e Event) *Draft {
	ns, skey, sends, err := move(pr, c, e, true)
	if err != nil {
		panic(err)
	}
	if ns == nil {
		return nil
	}
	dr.d = Draft{parent: c, state: ns, skey: skey, p: e.P}
	dr.d.bufDraft, dr.mem = place(dr.mem, &c.buf, e.Msg, sends)
	return &dr.d
}

// move is the protocol half of a step, the one place a protocol is
// stepped: it runs e.P's Step, checks the model's invariants and returns
// the successor state, its key and the messages sent, in send order, From
// stamped in place. With dropNoOp set, a null event that leaves c
// unchanged (IsNoOp) yields a nil state, decided from the same Step call
// that would have produced the child.
//
// The successor state's Key() is called here, once: it settles the no-op
// test against the key the parent carries, and travels with the state into
// the child and every configuration that inherits it.
func move(pr Protocol, c *Config, e Event, dropNoOp bool) (State, string, []Message, error) {
	if int(e.P) < 0 || int(e.P) >= c.N() {
		return nil, "", nil, &ProtocolError{Protocol: pr.Name(), P: e.P, Reason: "no such process"}
	}
	if e.Msg != nil && !Applicable(c, e) {
		return nil, "", nil, fmt.Errorf("%w: %s", ErrNotApplicable, e)
	}
	old := &c.procs[e.P]
	ns, sends := pr.Step(e.P, old.state, e.Msg)
	if ns == nil {
		return nil, "", nil, &ProtocolError{Protocol: pr.Name(), P: e.P, Reason: "Step returned nil state"}
	}
	skey := ns.Key()
	if dropNoOp && e.Msg == nil && len(sends) == 0 && skey == old.skey {
		return nil, "", nil, nil
	}
	if o := old.state.Output(); o.Decided() && ns.Output() != o {
		return nil, "", nil, &ProtocolError{
			Protocol: pr.Name(), P: e.P,
			Reason: fmt.Sprintf("output register is write-once: was %s, Step changed it to %s", o, ns.Output()),
		}
	}
	for i := range sends {
		if int(sends[i].To) < 0 || int(sends[i].To) >= c.N() {
			return nil, "", nil, &ProtocolError{
				Protocol: pr.Name(), P: e.P,
				Reason: fmt.Sprintf("sent message to nonexistent process %d", sends[i].To),
			}
		}
		sends[i].From = e.P
	}
	return ns, skey, sends, nil
}

// place is the buffer half of a step on b, drafted into mem: b's entries
// less one copy of *remove (nil, or a message b lacks, removes nothing)
// plus one copy of every message in sends, the keys of those b lacks
// written into mem. It returns the draft and mem grown. mem travels by
// value and holds no pointer into itself, so memory a caller keeps on its
// stack stays there. Copies of messages b holds are added before the
// delivered one is taken off, so an entry drops out only when the step
// leaves none of it.
func place(mem draftMem, b *Buffer, remove *Message, sends []Message) (bufDraft, draftMem) {
	e0, s0, k0 := len(mem.entries), len(mem.spans), len(mem.keys)
	mem.entries = slices.Grow(mem.entries, len(b.es)+len(sends))[:e0+len(b.es)]
	for i := range b.es {
		mem.entries[e0+i] = draftEntry{at: int32(i), count: int32(b.es[i].count)}
	}
	d := bufDraft{keyLen: b.keyLen, sends: sends}
	for i := range sends {
		var sp keySpan
		if at := b.find(&sends[i]); at >= 0 {
			d.add(&mem.entries[e0+at], len(b.es[at].rec.key), 1)
		} else {
			sp.k0 = int32(len(mem.keys) - k0)
			mem.keys = sends[i].AppendKey(mem.keys)
			sp.k1 = int32(len(mem.keys) - k0)
		}
		mem.spans = append(mem.spans, sp)
	}
	if remove != nil {
		if i := b.find(remove); i >= 0 {
			if d.add(&mem.entries[e0+i], len(b.es[i].rec.key), -1); mem.entries[e0+i].count == 0 {
				mem.entries = append(mem.entries[:e0+i], mem.entries[e0+i+1:]...)
			}
		}
	}
	d.spans = mem.spans[s0:len(mem.spans):len(mem.spans)]
	d.msgKeys = mem.keys[k0:len(mem.keys):len(mem.keys)]
	for j := range sends {
		if d.spans[j].k1 == 0 {
			continue // b holds it: counted above
		}
		key := d.key(j)
		es := mem.entries[e0:]
		lo, hi := 0, len(es)
		for lo < hi {
			if m := int(uint(lo+hi) >> 1); d.compare(b, es[m], key) < 0 {
				lo = m + 1
			} else {
				hi = m
			}
		}
		if lo < len(es) && d.compare(b, es[lo], key) == 0 {
			d.add(&es[lo], len(key), 1) // a second copy sent in this step
			continue
		}
		mem.entries = append(mem.entries, draftEntry{})
		es = mem.entries[e0:]
		copy(es[lo+1:], es[lo:])
		es[lo] = draftEntry{at: int32(-1 - j)}
		d.add(&es[lo], len(key), 1)
	}
	d.entries = mem.entries[e0:len(mem.entries):len(mem.entries)]
	return d, mem
}

// add adds n copies to entry e, whose key is klen bytes long, keeping
// keyLen.
func (d *bufDraft) add(e *draftEntry, klen, n int) {
	d.keyLen += entryKeyLen(int(e.count)+n, klen) - entryKeyLen(int(e.count), klen)
	e.count += int32(n)
}

// key returns the key of sends[j], a message the parent lacks.
func (d *bufDraft) key(j int) []byte { return d.msgKeys[d.spans[j].k0:d.spans[j].k1] }

// compare compares the key of entry e, drafted on b, with key.
func (d *bufDraft) compare(b *Buffer, e draftEntry, key []byte) int {
	if e.at < 0 {
		return bytes.Compare(d.key(int(-1-e.at)), key)
	}
	switch k := b.es[e.at].rec.key; {
	case k < string(key):
		return -1
	case k == string(key):
		return 0
	}
	return 1
}

func (d *Draft) keys() procKeys { return procKeys{procs: d.parent.procs, p: int(d.p), skey: d.skey} }

// Hash returns the fingerprint of the child, Build().Hash(): FNV-1a
// streamed over the child's fields without building them, cached.
func (d *Draft) Hash() uint64 {
	if d.hash != 0 {
		return d.hash
	}
	es := d.parent.buf.es
	h := fnvUvarint(d.keys().hash(), uint64(d.keyLen))
	for _, e := range d.entries {
		if e.at < 0 {
			h = hashEntry(h, int(e.count), d.key(int(-1-e.at)))
		} else {
			h = hashEntry(h, int(e.count), es[e.at].rec.key)
		}
	}
	d.hash = fingerprint(h)
	return d.hash
}

// AppendKey appends the child's canonical key, Build().KeyBytes(), to dst
// without building the child, so a holder that ships or compares keys
// keys a step it may never build.
func (d *Draft) AppendKey(dst []byte) []byte {
	dst = d.keys().appendKey(dst)
	dst = binary.AppendUvarint(dst, uint64(d.keyLen))
	es := d.parent.buf.es
	for _, e := range d.entries {
		if e.at < 0 {
			dst = appendEntry(dst, int(e.count), d.key(int(-1-e.at)))
		} else {
			dst = appendEntry(dst, int(e.count), es[e.at].rec.key)
		}
	}
	return dst
}

// Same reports whether the child is the configuration x,
// Build().Equal(x), without building the child: the fingerprints, then
// every state key and the buffer multiset.
func (d *Draft) Same(x *Config) bool {
	if d.Hash() != x.Hash() || !d.keys().equal(x.keys()) || len(d.entries) != len(x.buf.es) {
		return false
	}
	es := d.parent.buf.es
	for i, e := range d.entries {
		xe := &x.buf.es[i]
		if int(e.count) != xe.count {
			return false
		}
		if e.at < 0 {
			if d.sends[-1-e.at] != xe.rec.msg {
				return false
			}
		} else if r := es[e.at].rec; r != xe.rec && r.msg != xe.rec.msg {
			return false
		}
	}
	return true
}

// Build returns the child configuration, with the fingerprint carried
// over once Hash has computed it.
func (d *Draft) Build() *Config {
	c, _ := build(d.parent, d.p, d.state, d.skey, &d.bufDraft)
	if d.hash != 0 {
		c.hash.Store(d.hash)
	}
	return c
}

// build makes the child of parent in which process p is in state ns (skey
// its key) and the buffer is bd: its process slice, the records of the
// messages sent — returned too, in send order —, its buffer entries and the
// Config. It is the one place a configuration is built from its parent.
func build(parent *Config, p PID, ns State, skey string, bd *bufDraft) (*Config, []msgRec) {
	procs := make([]proc, len(parent.procs))
	copy(procs, parent.procs)
	procs[p] = proc{ns, skey}
	recs := make([]msgRec, len(bd.sends))
	for i := range bd.sends {
		recs[i].msg = bd.sends[i]
	}
	pes := parent.buf.es
	c := &Config{procs: procs}
	c.buf.es = make([]bufEntry, len(bd.entries), len(pes)+len(bd.sends))
	for i, e := range bd.entries {
		var rec *msgRec
		if e.at < 0 {
			rec = &recs[-1-e.at]
			rec.key = string(bd.key(int(-1 - e.at)))
		} else {
			rec = pes[e.at].rec
		}
		c.buf.es[i] = bufEntry{rec: rec, count: int(e.count)}
		c.buf.size += int(e.count)
	}
	c.buf.keyLen = bd.keyLen
	return c, recs
}
