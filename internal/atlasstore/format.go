// Package atlasstore is the disk-backed, content-addressed store behind
// explore.AtlasCache: valency atlases persisted as flat binary artifacts
// that load with one sequential read — no per-node decoding, no
// re-exploration — and budget-truncated explorations persisted with their
// frontier so a later, deeper request resumes where the artifact stopped
// instead of re-expanding anything.
//
// This file is the artifact codec. The layout (DESIGN.md §9) is the magic,
// the version and flags, a header of uvarint counts and identity fields,
// an event dictionary of model.AppendEvent entries, the struct-of-arrays
// node and edge columns in little-endian fixed width, the dense-id →
// binary-canonical-key table, and a CRC-32C trailer over everything
// preceding it. Everything variable-width is read with model.Reader, the
// cluster wire's reader. A run checkpoint is the same artifact with the
// run-cursor flag, its cursor in the header and no edges. Decoding
// verifies checksum, magic, and version before touching a single field,
// then bounds-checks every cross-array index, so a truncated or
// bit-flipped artifact is always an error — never a panic, never a wrong
// atlas.
package atlasstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"

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
// Version 2 wrote the header in uvarints and the event dictionary in
// model.AppendEvent's encoding.
const formatVersion uint32 = 2

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

// encodeArtifact renders an artifact to its on-disk bytes, appended into
// one buffer of exactly encodedSize bytes.
func encodeArtifact(a *artifact) []byte {
	snap := a.Snap
	// Event dictionary: every distinct via label across both event
	// columns. parentVia[0] is the zero Event, so the null event for
	// process 0 is always present — no sentinel index needed.
	var dict eventDict
	parentViaIdx := dict.column(snap.ParentVia)
	succViaIdx := dict.column(snap.SuccVia)

	b := make([]byte, 0, encodedSize(a, dict.events))
	b = append(b, magic[:]...)
	b = binary.LittleEndian.AppendUint32(b, formatVersion)
	var flags uint32
	if snap.Complete {
		flags |= flagComplete
	}
	if writesDists(snap) {
		flags |= flagDists
	}
	if a.Run {
		flags |= flagRun
		if a.Truncated {
			flags |= flagLedgerTruncated
		}
	}
	b = binary.LittleEndian.AppendUint32(b, flags)
	for _, v := range []int{len(snap.Depth), len(snap.SuccStart) - 1, len(snap.SuccTo), len(dict.events)} { // V, X, E, D
		b = model.AppendUvarint(b, uint64(v))
	}
	b = model.AppendString(b, a.Key.Protocol)
	b = model.AppendUvarint(b, uint64(a.Key.N))
	b = model.AppendBytes(b, a.Key.RootKey)
	if a.Run {
		b = model.AppendString(b, a.Key.Avoid)
		for _, v := range []int{a.Key.MaxConfigs, a.Key.MaxDepth, a.Start, a.Expanded} {
			b = model.AppendUvarint(b, uint64(v))
		}
	}

	for _, e := range dict.events {
		b = model.AppendEvent(b, e)
	}
	b = appendI32s(b, snap.Depth)
	b = appendI32s(b, snap.Parent)
	b = appendI32s(b, parentViaIdx)
	b = appendI32s(b, snap.SuccStart)
	b = appendI32s(b, snap.SuccTo)
	b = appendI32s(b, succViaIdx)
	if writesDists(snap) {
		b = appendI32s(b, snap.Dist0)
		b = appendI32s(b, snap.Dist1)
	}

	b = appendKeyTable(b, snap.Keys)
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
	return b
}

// writesDists reports whether snap's artifact carries the two distance
// columns: complete, with one distance per node.
func writesDists(snap *explore.AtlasSnapshot) bool {
	return snap.Complete && len(snap.Dist0) == len(snap.Depth)
}

// encodedSize is the exact length of a's encoding, dict being its event
// dictionary: the capacity encodeArtifact gives its buffer, so that append
// never regrows it.
func encodedSize(a *artifact, dict []model.Event) int {
	snap := a.Snap
	n := len(magic) + 4 + 4 // magic, version, flags
	// The counts V, X, E, D, then the identity.
	for _, v := range []int{len(snap.Depth), len(snap.SuccStart) - 1, len(snap.SuccTo), len(dict)} {
		n += uvarintLen(v)
	}
	n += prefixedLen(len(a.Key.Protocol)) + uvarintLen(a.Key.N) + prefixedLen(len(a.Key.RootKey))
	if a.Run {
		n += prefixedLen(len(a.Key.Avoid))
		for _, v := range []int{a.Key.MaxConfigs, a.Key.MaxDepth, a.Start, a.Expanded} {
			n += uvarintLen(v)
		}
	}
	for _, e := range dict {
		n += 1 + uvarintLen(int(e.P)) // tag, process
		if e.Msg != nil {
			n += uvarintLen(int(e.Msg.To)) + uvarintLen(int(e.Msg.From)) + prefixedLen(len(e.Msg.Body))
		}
	}
	cols := len(snap.Depth) + len(snap.Parent) + len(snap.ParentVia) + len(snap.SuccStart) + len(snap.SuccTo) + len(snap.SuccVia)
	if writesDists(snap) {
		cols += len(snap.Dist0) + len(snap.Dist1)
	}
	n += 4 * cols
	n += 8 * (len(snap.Keys) + 1)
	for _, k := range snap.Keys {
		n += len(k)
	}
	return n + 4 // CRC-32C trailer
}

// uvarintLen is the length of model.AppendUvarint(b, uint64(v)).
func uvarintLen(v int) int { return (bits.Len64(uint64(v)|1) + 6) / 7 }

// prefixedLen is the length of an n-byte string after its uvarint length.
func prefixedLen(n int) int { return uvarintLen(n) + n }

// decodeArtifact parses and validates on-disk bytes. Every failure is a
// *corruptError; the caller (Store) logs, deletes, and rebuilds.
func decodeArtifact(b []byte) (*artifact, error) {
	r, err := openFrame(b)
	if err != nil {
		return nil, err
	}
	flags := r.Uint32("flags")
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
	V := r.Count("node count")
	X := r.Count("expanded count")
	E := r.Count("edge count")
	D := r.Count("event dictionary size")
	a := &artifact{Run: run}
	a.Key.Protocol = r.String("protocol")
	a.Key.N = r.Int("n")
	a.Key.RootKey = r.Bytes("root key")
	if run {
		// The bounds are run parameters, not file-sized counts — a budget
		// of 10M is plausible in a file of 200 bytes — so they are read
		// unclamped; the identity check against the requested run
		// validates them.
		a.Key.Avoid = r.String("avoided event")
		a.Key.MaxConfigs = int(r.Uvarint("max configs"))
		a.Key.MaxDepth = int(r.Uvarint("max depth"))
		a.Start = r.Int("pending level start")
		a.Expanded = r.Int("expanded nodes")
		a.Truncated = flags&flagLedgerTruncated != 0
	}
	if err := r.Err(); err != nil {
		return nil, corruptf("header: %v", err)
	}
	if V == 0 || X > V || a.Key.N <= 0 {
		return nil, corruptf("implausible counts V=%d X=%d n=%d", V, X, a.Key.N)
	}
	if run && (X != 0 || E != 0 || a.Start < 1 || a.Start >= V) {
		return nil, corruptf("implausible run cursor V=%d X=%d E=%d start=%d", V, X, E, a.Start)
	}

	dict := make([]model.Event, D)
	for i := range dict {
		dict[i] = r.Event("event dictionary")
	}
	depth := readI32s(&r, "depth column", V)
	parent := readI32s(&r, "parent column", V)
	parentViaIdx := r.Next("parent event column", 4*V)
	succStart := readI32s(&r, "edge offset column", X+1)
	succTo := readI32s(&r, "edge target column", E)
	succViaIdx := r.Next("edge event column", 4*E)
	var dist0, dist1 []int32
	if hasDists {
		dist0 = readI32s(&r, "distance-0 column", V)
		dist1 = readI32s(&r, "distance-1 column", V)
	}
	keys, err := readKeyTable(&r, V)
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
func openFrame(b []byte) (model.Reader, error) {
	if len(b) < len(magic)+4+4+4 {
		return model.Reader{}, corruptf("short file (%d bytes)", len(b))
	}
	body, trailer := b[:len(b)-4], b[len(b)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(trailer) {
		return model.Reader{}, corruptf("checksum mismatch")
	}
	if !bytes.Equal(body[:len(magic)], magic[:]) {
		return model.Reader{}, corruptf("bad magic")
	}
	r := model.NewReader(body[len(magic):])
	if v := r.Uint32("format version"); v != formatVersion {
		return model.Reader{}, corruptf("format version %d (want %d)", v, formatVersion)
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
// model.AppendEvent encodes, the identity Event.Same compares — so that
// looking an edge's label up allocates nothing.
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
// checksummed body, reading its V+1 offsets in place: each key aliases the
// blob. r's sticky error also covers the columns read just before it.
func readKeyTable(r *model.Reader, V int) ([][]byte, error) {
	off := r.Next("key offsets", 8*(V+1))
	if err := r.Err(); err != nil {
		return nil, corruptf("columns: %v", err)
	}
	blobLen := binary.LittleEndian.Uint64(off[8*V:])
	if blobLen != uint64(r.Len()) {
		return nil, corruptf("key blob of %d bytes, %d remain", blobLen, r.Len())
	}
	keyBlob := r.Next("key blob", int(blobLen))
	keys := make([][]byte, V)
	lo := binary.LittleEndian.Uint64(off)
	for i := range keys {
		hi := binary.LittleEndian.Uint64(off[8*(i+1):])
		if lo > hi || hi > blobLen {
			return nil, corruptf("key offsets not monotonic")
		}
		keys[i] = keyBlob[lo:hi]
		lo = hi
	}
	return keys, nil
}

// viaColumn resolves a column of little-endian int32 dictionary indices,
// read in place from the frame, to events, bounds-checked.
func viaColumn(idx []byte, dict []model.Event) ([]model.Event, error) {
	out := make([]model.Event, len(idx)/4)
	for i := range out {
		j := int32(binary.LittleEndian.Uint32(idx[4*i:]))
		if j < 0 || int(j) >= len(dict) {
			return nil, corruptf("event index %d out of dictionary range %d", j, len(dict))
		}
		out[i] = dict[j]
	}
	return out, nil
}

func appendI32s(b []byte, xs []int32) []byte {
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint32(b, uint32(x))
	}
	return b
}

// readI32s reads a column of n fixed-width little-endian int32s.
func readI32s(r *model.Reader, what string, n int) []int32 {
	p := r.Next(what, 4*n)
	if p == nil {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(p[4*i:]))
	}
	return out
}
