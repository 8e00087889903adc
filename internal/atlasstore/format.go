// Package atlasstore is the disk-backed, content-addressed store behind
// explore.AtlasCache: valency atlases persisted as flat binary artifacts
// that load with one sequential read — no per-node decoding, no
// re-exploration — and budget-truncated explorations persisted with their
// frontier so a later, deeper request resumes where the artifact stopped
// instead of re-expanding anything.
//
// This file is the artifact codec. The layout (DESIGN.md §9) is a fixed
// header, an event dictionary, the struct-of-arrays node and edge columns
// in little-endian fixed width, the dense-id → binary-canonical-key table,
// and a CRC-32C trailer over everything preceding it. A run checkpoint is
// the same artifact with the run-cursor flag, its cursor in the header and
// no edges. Decoding verifies checksum, magic, and version before touching
// a single field, then bounds-checks every cross-array index, so a
// truncated or bit-flipped artifact is always an error — never a panic,
// never a wrong atlas.
package atlasstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
)

// magic identifies an atlas artifact; the trailing byte doubles as a
// format generation so an old binary refuses a future layout outright.
var magic = [8]byte{'F', 'L', 'P', 'A', 'T', 'L', 'S', 1}

// formatVersion is the artifact layout version. Bump it whenever the
// byte layout or any persisted semantic (key derivation, event encoding,
// distance convention) changes; the store treats a mismatch like
// corruption — delete and rebuild — so stale artifacts can never answer.
const formatVersion uint32 = 1

// flagComplete marks an artifact whose reachable set is exhausted; clear
// means a truncated exploration persisted with its frontier for later
// resume. flagDists marks the presence of the two backward-distance
// columns — set on every complete artifact the store writes (the warm
// load path needs them), and never without flagComplete. flagRun marks a
// run checkpoint: a truncated artifact with no edges whose header carries
// the run cursor, and flagLedgerTruncated, set only beside it, records
// that the run's ledger had already observed a budget or depth cutoff.
const (
	flagComplete        uint32 = 1 << 0
	flagDists           uint32 = 1 << 1
	flagRun             uint32 = 1 << 2
	flagLedgerTruncated uint32 = 1 << 3
)

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// artifact is the decoded form of either file kind: the identity the file
// was written for, the exploration snapshot, and for a run checkpoint
// (Run) the cursor. A lineage's identity has only Protocol, N and RootKey.
type artifact struct {
	Key RunKey
	Run bool
	RunCheckpoint
}

// corruptError marks artifact damage the store responds to by deleting
// and rebuilding (as opposed to I/O errors, which it only logs).
type corruptError struct{ msg string }

func (e *corruptError) Error() string { return "atlasstore: corrupt artifact: " + e.msg }

func corruptf(format string, args ...any) error {
	return &corruptError{msg: fmt.Sprintf(format, args...)}
}

// encodeArtifact renders an artifact to its on-disk bytes.
func encodeArtifact(a *artifact) []byte {
	snap := a.Snap
	// Event dictionary: every distinct via label across both event
	// columns. parentVia[0] is the zero Event, so the null event for
	// process 0 is always present — no sentinel index needed.
	var dict eventDict
	parentViaIdx := dict.column(snap.ParentVia)
	succViaIdx := dict.column(snap.SuccVia)

	var b []byte
	b = append(b, magic[:]...)
	b = binary.LittleEndian.AppendUint32(b, formatVersion)
	var flags uint32
	if snap.Complete {
		flags |= flagComplete
	}
	hasDists := snap.Complete && len(snap.Dist0) == len(snap.Depth)
	if hasDists {
		flags |= flagDists
	}
	if a.Run {
		flags |= flagRun
		if a.Truncated {
			flags |= flagLedgerTruncated
		}
	}
	b = binary.LittleEndian.AppendUint32(b, flags)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(snap.Depth)))       // V
	b = binary.LittleEndian.AppendUint64(b, uint64(len(snap.SuccStart)-1)) // X
	b = binary.LittleEndian.AppendUint64(b, uint64(len(snap.SuccTo)))      // E
	b = binary.LittleEndian.AppendUint64(b, uint64(len(dict.events)))      // D
	b = appendBytes(b, []byte(a.Key.Protocol))
	b = binary.LittleEndian.AppendUint64(b, uint64(a.Key.N))
	b = appendBytes(b, a.Key.RootKey)
	if a.Run {
		b = appendBytes(b, []byte(a.Key.Avoid))
		b = binary.LittleEndian.AppendUint64(b, uint64(a.Key.MaxConfigs))
		b = binary.LittleEndian.AppendUint64(b, uint64(a.Key.MaxDepth))
		b = binary.LittleEndian.AppendUint64(b, uint64(a.Start))
		b = binary.LittleEndian.AppendUint64(b, uint64(a.Expanded))
	}

	b = dict.appendTo(b)
	b = appendI32s(b, snap.Depth)
	b = appendI32s(b, snap.Parent)
	b = appendI32s(b, parentViaIdx)
	b = appendI32s(b, snap.SuccStart)
	b = appendI32s(b, snap.SuccTo)
	b = appendI32s(b, succViaIdx)
	if hasDists {
		b = appendI32s(b, snap.Dist0)
		b = appendI32s(b, snap.Dist1)
	}

	b = appendKeyTable(b, snap.Keys)
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
	return b
}

// decodeArtifact parses and validates on-disk bytes. Every failure is a
// *corruptError; the caller (Store) logs, deletes, and rebuilds.
func decodeArtifact(b []byte) (*artifact, error) {
	r, err := openFrame(b)
	if err != nil {
		return nil, err
	}
	flags := r.u32()
	complete := flags&flagComplete != 0
	hasDists := flags&flagDists != 0
	run := flags&flagRun != 0
	switch {
	case hasDists && !complete:
		return nil, corruptf("distance columns on a truncated artifact")
	case run && complete:
		return nil, corruptf("run cursor on a complete artifact")
	case !run && flags&flagLedgerTruncated != 0:
		return nil, corruptf("ledger flag without a run cursor")
	}
	V := r.count()
	X := r.count()
	E := r.count()
	D := r.count()
	a := &artifact{Run: run}
	a.Key.Protocol = string(r.blob())
	a.Key.N = r.count()
	a.Key.RootKey = r.blob()
	if run {
		// The bounds are run parameters, not file-sized counts — a budget
		// of 10M is plausible in a file of 200 bytes — so they bypass
		// count()'s file-length clamp; the identity check against the
		// requested run validates them.
		a.Key.Avoid = string(r.blob())
		a.Key.MaxConfigs = int(r.u64())
		a.Key.MaxDepth = int(r.u64())
		a.Start = r.count()
		a.Expanded = r.count()
		a.Truncated = flags&flagLedgerTruncated != 0
	}
	if r.err != nil {
		return nil, corruptf("truncated header")
	}
	if V == 0 || X > V || a.Key.N <= 0 {
		return nil, corruptf("implausible counts V=%d X=%d n=%d", V, X, a.Key.N)
	}
	if run && (X != 0 || E != 0 || a.Start < 1 || a.Start >= V) {
		return nil, corruptf("implausible run cursor V=%d X=%d E=%d start=%d", V, X, E, a.Start)
	}

	dict, err := readEventDict(r, D)
	if err != nil {
		return nil, err
	}

	depth := r.i32s(V)
	parent := r.i32s(V)
	parentViaIdx := r.i32s(V)
	succStart := r.i32s(X + 1)
	succTo := r.i32s(E)
	succViaIdx := r.i32s(E)
	var dist0, dist1 []int32
	if hasDists {
		dist0 = r.i32s(V)
		dist1 = r.i32s(V)
	}
	keys, err := readKeyTable(r, V)
	if err != nil {
		return nil, err
	}
	parentVia, err := viaColumn(parentViaIdx, dict)
	if err != nil {
		return nil, err
	}
	succVia, err := viaColumn(succViaIdx, dict)
	if err != nil {
		return nil, err
	}
	if run {
		if err := checkBoundary(depth, succStart, a.Start); err != nil {
			return nil, err
		}
	}
	a.Snap = &explore.AtlasSnapshot{
		Depth: depth, Parent: parent, ParentVia: parentVia,
		SuccStart: succStart, SuccTo: succTo, SuccVia: succVia,
		Keys: keys, Complete: complete, Dist0: dist0, Dist1: dist1,
	}
	return a, nil
}

// checkBoundary holds a run checkpoint's node table to the level-boundary
// invariant: no node expanded, admission order breadth-first (depths
// non-decreasing), and nodes [start, V) exactly the pending level — one
// contiguous run at the deepest depth, starting right after a node one
// level shallower.
func checkBoundary(depth, succStart []int32, start int) error {
	if succStart[0] != 0 {
		return corruptf("edge offsets on a run checkpoint")
	}
	for i := 1; i < len(depth); i++ {
		if depth[i] < depth[i-1] {
			return corruptf("node depths not in admission order at %d", i)
		}
	}
	if depth[start] != depth[len(depth)-1] || depth[start-1] != depth[start]-1 {
		return corruptf("pending level [%d,%d) is not a level boundary", start, len(depth))
	}
	return nil
}

// decodeFor decodes b and checks that it is key's file of the requested
// kind: the header must name the identity the content-addressed file name
// was derived from, and carry the run cursor exactly when run. A mismatch
// is only possible through corruption, tampering, or a file copied between
// names, and is answered like corruption.
func decodeFor(key RunKey, run bool, b []byte) (*artifact, error) {
	a, err := decodeArtifact(b)
	if err != nil {
		return nil, err
	}
	if a.Run && !run {
		return nil, corruptf("a run checkpoint under an atlas artifact's name")
	}
	if !a.Run && run {
		return nil, corruptf("an atlas artifact under a run checkpoint's name")
	}
	k := a.Key
	if k.Protocol != key.Protocol || k.N != key.N || !bytes.Equal(k.RootKey, key.RootKey) ||
		k.Avoid != key.Avoid || k.MaxConfigs != key.MaxConfigs || k.MaxDepth != key.MaxDepth {
		return nil, corruptf("identity does not match the file name")
	}
	return a, nil
}

// openFrame checks the frame before a single field is read — minimum
// length, the CRC-32C trailer over everything preceding it, magic, layout
// version — and returns a reader positioned after the version.
func openFrame(b []byte) (*reader, error) {
	if len(b) < len(magic)+4+4+4 {
		return nil, corruptf("short file (%d bytes)", len(b))
	}
	body, trailer := b[:len(b)-4], b[len(b)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(trailer) {
		return nil, corruptf("checksum mismatch")
	}
	r := &reader{b: body}
	var m [8]byte
	copy(m[:], r.bytes(8))
	if r.err != nil || m != magic {
		return nil, corruptf("bad magic")
	}
	if v := r.u32(); v != formatVersion {
		return nil, corruptf("format version %d (want %d)", v, formatVersion)
	}
	return r, nil
}

// eventDict is the artifact's event dictionary: every distinct via label
// once, in first-use order, with the event columns stored as indices into
// it.
type eventDict struct {
	events []model.Event
	idx    map[eventID]int32
}

// eventID is an event's identity as a comparable value — the fields
// model.Event.Key renders — so that looking an edge's label up allocates
// nothing.
type eventID struct {
	p, to, from model.PID
	deliver     bool
	body        string
}

// column returns evs as dictionary indices, adding unseen events.
func (d *eventDict) column(evs []model.Event) []int32 {
	if d.idx == nil {
		d.idx = make(map[eventID]int32)
	}
	out := make([]int32, len(evs))
	for i, e := range evs {
		k := eventID{p: e.P}
		if e.Msg != nil {
			k = eventID{p: e.P, to: e.Msg.To, from: e.Msg.From, deliver: true, body: e.Msg.Body}
		}
		j, ok := d.idx[k]
		if !ok {
			j = int32(len(d.events))
			d.events = append(d.events, e)
			d.idx[k] = j
		}
		out[i] = j
	}
	return out
}

// appendTo encodes the dictionary entries: a kind byte, the process, and
// for deliveries the message.
func (d *eventDict) appendTo(b []byte) []byte {
	for _, e := range d.events {
		if e.Msg == nil {
			b = append(b, 0)
			b = binary.LittleEndian.AppendUint64(b, uint64(int64(e.P)))
		} else {
			b = append(b, 1)
			b = binary.LittleEndian.AppendUint64(b, uint64(int64(e.P)))
			b = binary.LittleEndian.AppendUint64(b, uint64(int64(e.Msg.To)))
			b = binary.LittleEndian.AppendUint64(b, uint64(int64(e.Msg.From)))
			b = appendBytes(b, []byte(e.Msg.Body))
		}
	}
	return b
}

// readEventDict decodes n dictionary entries.
func readEventDict(r *reader, n int) ([]model.Event, error) {
	dict := make([]model.Event, n)
	for i := range dict {
		switch kind := r.u8(); kind {
		case 0:
			dict[i] = model.Event{P: model.PID(r.i64())}
		case 1:
			p := model.PID(r.i64())
			to := model.PID(r.i64())
			from := model.PID(r.i64())
			body := string(r.blob())
			msg := model.Message{To: to, From: from, Body: body}
			dict[i] = model.Event{P: p, Msg: &msg}
		default:
			if r.err == nil {
				return nil, corruptf("unknown event kind %d", kind)
			}
		}
		if r.err != nil {
			return nil, corruptf("truncated event dictionary")
		}
	}
	return dict, nil
}

// appendKeyTable encodes the dense-id → canonical-key table: len(keys)+1
// cumulative offsets into one blob, then the blob.
func appendKeyTable(b []byte, keys [][]byte) []byte {
	b = binary.LittleEndian.AppendUint64(b, 0)
	off := uint64(0)
	for _, k := range keys {
		off += uint64(len(k))
		b = binary.LittleEndian.AppendUint64(b, off)
	}
	for _, k := range keys {
		b = append(b, k...)
	}
	return b
}

// readKeyTable decodes the key table of a V-node artifact, which ends the
// checksummed body. r's sticky error also covers the fixed-width columns
// read just before it.
func readKeyTable(r *reader, V int) ([][]byte, error) {
	keyOff := r.u64s(V + 1)
	if r.err != nil {
		return nil, corruptf("truncated columns")
	}
	blobLen := keyOff[V]
	if blobLen > uint64(len(r.b)-r.off) {
		return nil, corruptf("key blob overruns file")
	}
	keyBlob := r.bytes(int(blobLen))
	if r.err != nil || r.off != len(r.b) {
		return nil, corruptf("trailing or missing bytes")
	}
	keys := make([][]byte, V)
	for i := range keys {
		lo, hi := keyOff[i], keyOff[i+1]
		if lo > hi || hi > blobLen {
			return nil, corruptf("key offsets not monotonic")
		}
		keys[i] = keyBlob[lo:hi]
	}
	return keys, nil
}

// viaColumn resolves dictionary indices to events, bounds-checked.
func viaColumn(idx []int32, dict []model.Event) ([]model.Event, error) {
	out := make([]model.Event, len(idx))
	for i, j := range idx {
		if j < 0 || int(j) >= len(dict) {
			return nil, corruptf("event index %d out of dictionary range %d", j, len(dict))
		}
		out[i] = dict[j]
	}
	return out, nil
}

func appendBytes(b, p []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(p)))
	return append(b, p...)
}

func appendI32s(b []byte, xs []int32) []byte {
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint32(b, uint32(x))
	}
	return b
}

// reader is a cursor over the artifact body with sticky error semantics:
// any overrun sets err and every later read returns zero values, so decode
// paths stay straight-line.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil || n < 0 || r.off+n > len(r.b) {
		if r.err == nil {
			r.err = fmt.Errorf("overrun")
		}
		return nil
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}

func (r *reader) u8() byte {
	p := r.bytes(1)
	if p == nil {
		return 0
	}
	return p[0]
}

func (r *reader) u32() uint32 {
	p := r.bytes(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

func (r *reader) u64() uint64 {
	p := r.bytes(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

func (r *reader) i64() int64 { return int64(r.u64()) }

// count reads a u64 header count, clamping anything implausible (negative
// as int, or larger than the file could possibly hold) to an error.
func (r *reader) count() int {
	v := r.u64()
	if v > uint64(len(r.b)) || v > math.MaxInt32 {
		if r.err == nil {
			r.err = fmt.Errorf("implausible count %d", v)
		}
		return 0
	}
	return int(v)
}

// blob reads a u32-length-prefixed byte string.
func (r *reader) blob() []byte {
	n := r.u32()
	if uint64(n) > uint64(len(r.b)) {
		if r.err == nil {
			r.err = fmt.Errorf("implausible blob length %d", n)
		}
		return nil
	}
	return r.bytes(int(n))
}

func (r *reader) i32s(n int) []int32 {
	p := r.bytes(4 * n)
	if p == nil {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(p[4*i:]))
	}
	return out
}

func (r *reader) u64s(n int) []uint64 {
	p := r.bytes(8 * n)
	if p == nil {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(p[8*i:])
	}
	return out
}
