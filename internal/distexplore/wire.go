package distexplore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"github.com/flpsim/flp/internal/model"
)

// RPC payloads. A configuration crosses the wire as its identity — the
// fingerprint and the binary canonical key it is the FNV-1a hash of
// (wireKey) — plus, for adoption, the one step reaching it from its parent;
// see the wire-layer rationale in internal/model/wire.go. Every request
// that belongs to a level starts with that level as a uvarint, which is
// what FaultPlan's scripted kills read. The encoders of the large payloads
// append to a buffer their caller owns and reuses.
//
// There is one wire format. wireVersion travels in the init exchange both
// ways, and a member that speaks another version (or predates versions) is
// refused there with an error naming both sides — never mis-decoded later.
// Version 3 made adoption parent-relative (adoptNode).
const wireVersion = 3

// reader consumes one payload front to back. The first failure sticks and
// empties the buffer, so a decoder reads its fields unconditionally and
// checks once, in done. Counts are bounded by the bytes that remain (every
// element of every list is at least one byte), so a hostile count can size
// no slice past the payload's own length.
type reader struct {
	b   []byte
	err error
}

func (r *reader) fail(what string, err error) {
	if r.err == nil {
		r.err = fmt.Errorf("%s: %w", what, err)
	}
	r.b = nil
}

func (r *reader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n, err := model.ConsumeUvarint(r.b)
	if err != nil {
		r.fail(what, err)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// num reads a level, shard, index bound or process count into an int.
func (r *reader) num(what string) int {
	v := r.uvarint(what)
	if v > math.MaxInt32 {
		r.fail(what, fmt.Errorf("%d is out of range", v))
		return 0
	}
	return int(v)
}

func (r *reader) count(what string) int {
	v := r.uvarint(what)
	if v > uint64(len(r.b)) {
		r.fail(what, fmt.Errorf("count %d exceeds the %d bytes that remain", v, len(r.b)))
		return 0
	}
	return int(v)
}

// consume runs one of the model's Consume* decoders on the front of the
// payload.
func consume[T any](r *reader, what string, f func([]byte) (T, int, error)) T {
	var zero T
	if r.err != nil {
		return zero
	}
	v, n, err := f(r.b)
	if err != nil {
		r.fail(what, err)
		return zero
	}
	r.b = r.b[n:]
	return v
}

// done reports the sticky error, or that the payload was not used up.
func (r *reader) done(what string) error {
	if r.err == nil && len(r.b) > 0 {
		r.fail(what, fmt.Errorf("%d trailing bytes", len(r.b)))
	}
	return r.err
}

// wireKey is a configuration's identity on the wire: Config.Hash() and
// Config.KeyBytes(). The hash routes it to its shard and buckets it in the
// owner's visited slice; the key settles every comparison exactly. A
// decoded Key aliases the received frame.
type wireKey struct {
	Hash uint64
	Key  []byte
}

func identityOf(c *model.Config) wireKey { return wireKey{Hash: c.Hash(), Key: c.KeyBytes()} }

// wireKeySize and eventSize bound what appendWireKey and model.AppendEvent
// add, so an encoder grows its buffer once.
func wireKeySize(k wireKey) int { return 8 + binary.MaxVarintLen32 + len(k.Key) }

func eventSize(e model.Event) int {
	if e.Msg == nil {
		return 1 + binary.MaxVarintLen32
	}
	return 1 + 4*binary.MaxVarintLen32 + len(e.Msg.Body)
}

// grow returns b with room for n more bytes. It is slices.Grow, which
// under -race allocates the n bytes a second time (the compiler does not
// elide the make it appends there) and would make the allocation guard read
// differently with the detector on.
func grow(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b
	}
	return append(make([]byte, 0, len(b)+n), b...)
}

func appendWireKey(b []byte, k wireKey) []byte {
	b = binary.LittleEndian.AppendUint64(b, k.Hash)
	b = model.AppendUvarint(b, uint64(len(k.Key)))
	return append(b, k.Key...)
}

func (r *reader) key(what string) (k wireKey) {
	if r.err == nil && len(r.b) < 8 {
		r.fail(what, fmt.Errorf("truncated fingerprint"))
	}
	if r.err != nil {
		return k
	}
	k.Hash = binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	n := r.count(what)
	k.Key, r.b = r.b[:n:n], r.b[n:]
	return k
}

// initReq starts an exploration job on a worker. The worker reconstructs
// the protocol from the registry by name, builds the root configuration
// from the inputs plus the prefix schedule, and holds every visited-set
// shard whose replica chain (replica.go) includes WorkerIndex.
type initReq struct {
	Protocol    string
	N           int
	Inputs      model.Inputs
	Prefix      model.Schedule
	Avoid       *model.Event // nil: no filter (Lemma 3 jobs set it)
	Shards      int
	WorkerCount int
	WorkerIndex int
	Replicas    int
}

func (q *initReq) encode() []byte {
	b := model.AppendString(nil, q.Protocol)
	b = model.AppendUvarint(b, uint64(q.N))
	b = model.AppendInputs(b, q.Inputs)
	b = model.AppendSchedule(b, q.Prefix)
	if q.Avoid != nil {
		b = append(b, 1)
		b = model.AppendEvent(b, *q.Avoid)
	} else {
		b = append(b, 0)
	}
	for _, v := range []int{q.Shards, q.WorkerCount, q.WorkerIndex, q.Replicas, wireVersion} {
		b = model.AppendUvarint(b, uint64(v))
	}
	return b
}

func decodeInitReq(b []byte) (*initReq, error) {
	r := reader{b: b}
	var q initReq
	q.Protocol = consume(&r, "init protocol", model.ConsumeString)
	q.N = r.num("init n")
	q.Inputs = consume(&r, "init inputs", model.ConsumeInputs)
	q.Prefix = consume(&r, "init prefix", model.ConsumeSchedule)
	switch r.num("init avoid flag") {
	case 0:
	case 1:
		e := consume(&r, "init avoid", model.ConsumeEvent)
		q.Avoid = &e
	default:
		r.fail("init avoid flag", fmt.Errorf("not 0 or 1"))
	}
	for _, dst := range []*int{&q.Shards, &q.WorkerCount, &q.WorkerIndex, &q.Replicas} {
		*dst = r.num("init shard layout")
	}
	if err := r.wireVersion("the coordinator"); err != nil {
		return nil, fmt.Errorf("init: %w", err)
	}
	return &q, r.done("init")
}

// wireVersion reads the version the peer sent at init — the last field of
// the request, the whole acknowledgement — and holds it to the one-release
// rule. A peer from before versions existed sent nothing there.
func (r *reader) wireVersion(peer string) error {
	const fix = "run one release on every cluster member"
	if r.err == nil && len(r.b) == 0 {
		return fmt.Errorf("%s predates wire versions, this side speaks version %d; %s", peer, wireVersion, fix)
	}
	if v := r.num("wire version"); r.err == nil && v != wireVersion {
		return fmt.Errorf("%s speaks wire version %d, this side version %d; %s", peer, v, wireVersion, fix)
	}
	return nil
}

// checkInitAck reads a worker's answer to init: its wire version.
func checkInitAck(b []byte) error {
	r := reader{b: b}
	if err := r.wireVersion("the worker"); err != nil {
		return err
	}
	return r.done("init ack")
}

// expandReq asks a worker to expand the frontier nodes of one level whose
// global index lies in [Lo, Hi) and whose shard is listed — one
// budget-sized chunk of the level, for the shards the worker leads.
type expandReq struct {
	Level, Lo, Hi int
	Shards        []int
}

func (q *expandReq) encode() []byte {
	b := model.AppendUvarint(nil, uint64(q.Level))
	b = model.AppendUvarint(b, uint64(q.Lo))
	b = model.AppendUvarint(b, uint64(q.Hi))
	b = model.AppendUvarint(b, uint64(len(q.Shards)))
	for _, s := range q.Shards {
		b = model.AppendUvarint(b, uint64(s))
	}
	return b
}

func decodeExpandReq(b []byte) (*expandReq, error) {
	r := reader{b: b}
	q := expandReq{Level: r.num("expand level"), Lo: r.num("expand lo"), Hi: r.num("expand hi")}
	q.Shards = make([]int, r.count("expand shards"))
	for i := range q.Shards {
		q.Shards[i] = r.num("expand shard")
	}
	return &q, r.done("expand")
}

// candidate is one successor produced by expansion, before deduplication:
// the wire analogue of the in-process engine's Successor, tagged with its
// global provenance. (Parent, SuccIdx) totally orders a level's candidates
// in exactly the order the sequential engine's merge would consider them.
type candidate struct {
	Parent  uint64 // global index of the expanded node
	SuccIdx uint64 // position in the parent's canonical successor list
	wireKey
	Via model.Event
}

// firstOccurrence reports whether no candidate in kept has k's key yet, and
// remembers by fingerprint that the next one appended will. Two keys that
// collide on the fingerprint both count as first: the drop this serves is
// an optimization, and dedup at the shard owner stays exact.
func firstOccurrence(first map[uint64]int, kept []candidate, k wireKey) bool {
	if i, seen := first[k.Hash]; seen && bytes.Equal(kept[i].Key, k.Key) {
		return false
	}
	first[k.Hash] = len(kept)
	return true
}

// appendCandidates is the expand response: the level and the candidates the
// worker did not drop at the source.
func appendCandidates(b []byte, level int, cands []candidate) []byte {
	size := 2 * binary.MaxVarintLen32
	for _, c := range cands {
		size += 2*binary.MaxVarintLen64 + wireKeySize(c.wireKey) + eventSize(c.Via)
	}
	b = model.AppendUvarint(grow(b, size), uint64(level))
	b = model.AppendUvarint(b, uint64(len(cands)))
	for _, c := range cands {
		b = model.AppendUvarint(b, c.Parent)
		b = model.AppendUvarint(b, c.SuccIdx)
		b = appendWireKey(b, c.wireKey)
		b = model.AppendEvent(b, c.Via)
	}
	return b
}

func decodeCandidates(b []byte) (level int, cands []candidate, err error) {
	r := reader{b: b}
	level = r.num("candidates level")
	cands = make([]candidate, r.count("candidates count"))
	for i := range cands {
		cands[i] = candidate{
			Parent:  r.uvarint("candidate parent"),
			SuccIdx: r.uvarint("candidate successor index"),
			wireKey: r.key("candidate key"),
			Via:     consume(&r, "candidate event", model.ConsumeEvent),
		}
	}
	return level, cands, r.done("candidates")
}

// shardGroup is one shard's slice of a chunk's candidate identities, in
// global merge order, first occurrence of each key only. Dedup requests
// carry one group per shard the receiving worker replicates, so a worker can
// answer for several shards in one RPC while the coordinator still reads
// freshness per shard — which is what lets it take any live replica's
// answer for a shard whose primary died.
type shardGroup struct {
	Shard int
	Keys  []wireKey
}

// appendDedupReq frames one chunk's groups; (level, lo) names the chunk and
// is echoed by the answer.
func appendDedupReq(b []byte, level, lo int, groups []shardGroup) []byte {
	size := 3 * binary.MaxVarintLen32
	for _, g := range groups {
		size += 2 * binary.MaxVarintLen32
		for _, k := range g.Keys {
			size += wireKeySize(k)
		}
	}
	b = model.AppendUvarint(grow(b, size), uint64(level))
	b = model.AppendUvarint(b, uint64(lo))
	b = model.AppendUvarint(b, uint64(len(groups)))
	for _, g := range groups {
		b = model.AppendUvarint(b, uint64(g.Shard))
		b = model.AppendUvarint(b, uint64(len(g.Keys)))
		for _, k := range g.Keys {
			b = appendWireKey(b, k)
		}
	}
	return b
}

func decodeDedupReq(b []byte) (level, lo int, groups []shardGroup, err error) {
	r := reader{b: b}
	level, lo = r.num("dedup level"), r.num("dedup lo")
	groups = make([]shardGroup, r.count("dedup groups"))
	for i := range groups {
		groups[i].Shard = r.num("dedup shard")
		groups[i].Keys = make([]wireKey, r.count("dedup group size"))
		for j := range groups[i].Keys {
			groups[i].Keys[j] = r.key("dedup key")
		}
	}
	return level, lo, groups, r.done("dedup")
}

// shardIndices is one shard's dedup answer: the indices (into that shard's
// request group) of first-seen candidates.
type shardIndices struct {
	Shard int
	Fresh []uint64
}

func encodeDedupResp(level, lo int, groups []shardIndices) []byte {
	b := model.AppendUvarint(nil, uint64(level))
	b = model.AppendUvarint(b, uint64(lo))
	b = model.AppendUvarint(b, uint64(len(groups)))
	for _, g := range groups {
		b = model.AppendUvarint(b, uint64(g.Shard))
		b = model.AppendUvarint(b, uint64(len(g.Fresh)))
		for _, v := range g.Fresh {
			b = model.AppendUvarint(b, v)
		}
	}
	return b
}

func decodeDedupResp(b []byte) (level, lo int, groups []shardIndices, err error) {
	r := reader{b: b}
	level, lo = r.num("dedup answer level"), r.num("dedup answer lo")
	groups = make([]shardIndices, r.count("dedup answer groups"))
	for i := range groups {
		groups[i].Shard = r.num("dedup answer shard")
		groups[i].Fresh = make([]uint64, r.count("dedup answer size"))
		for j := range groups[i].Fresh {
			groups[i].Fresh[j] = r.uvarint("dedup answer index")
		}
	}
	return level, lo, groups, r.done("dedup answer")
}

// adoptNode is one admitted configuration being handed to its owning
// shard: identity (wireKey), placement (global index and depth), and
// provenance — the global index of its parent and the event that steps the
// parent into it, by which the owner rematerializes the configuration,
// verifying the key. At depth 0 the node is the job root and the
// provenance is unused.
type adoptNode struct {
	Index uint64
	Depth uint64
	wireKey
	Parent uint64
	Via    model.Event
}

// foreignParent is a parent the receiver of an adopt request does not hold
// — it lies in a shard the receiver does not replicate — as the schedule
// reaching it from the job root. A request lists each such parent once,
// whatever the number of its children, in ascending index order.
type foreignParent struct {
	Index    uint64
	Schedule model.Schedule
}

// appendAdoptReq frames one worker's share of a level's adopt batch.
func appendAdoptReq(b []byte, level int, foreign []foreignParent, nodes []adoptNode) []byte {
	size := 3 * binary.MaxVarintLen32
	for _, fp := range foreign {
		size += binary.MaxVarintLen64 + binary.MaxVarintLen32
		for _, e := range fp.Schedule {
			size += eventSize(e)
		}
	}
	for _, nd := range nodes {
		size += 3*binary.MaxVarintLen64 + wireKeySize(nd.wireKey) + eventSize(nd.Via)
	}
	b = model.AppendUvarint(grow(b, size), uint64(level))
	b = model.AppendUvarint(b, uint64(len(foreign)))
	for _, fp := range foreign {
		b = model.AppendUvarint(b, fp.Index)
		b = model.AppendSchedule(b, fp.Schedule)
	}
	b = model.AppendUvarint(b, uint64(len(nodes)))
	for _, nd := range nodes {
		b = model.AppendUvarint(b, nd.Index)
		b = model.AppendUvarint(b, nd.Depth)
		b = appendWireKey(b, nd.wireKey)
		b = model.AppendUvarint(b, nd.Parent)
		b = model.AppendEvent(b, nd.Via)
	}
	return b
}

func decodeAdoptReq(b []byte) (level int, foreign []foreignParent, nodes []adoptNode, err error) {
	r := reader{b: b}
	level = r.num("adopt level")
	foreign = make([]foreignParent, r.count("adopt foreign parent count"))
	for i := range foreign {
		foreign[i] = foreignParent{
			Index:    r.uvarint("adopt foreign parent index"),
			Schedule: consume(&r, "adopt foreign parent schedule", model.ConsumeSchedule),
		}
	}
	nodes = make([]adoptNode, r.count("adopt count"))
	for i := range nodes {
		nodes[i] = adoptNode{
			Index:   r.uvarint("adopt index"),
			Depth:   r.uvarint("adopt depth"),
			wireKey: r.key("adopt key"),
			Parent:  r.uvarint("adopt parent"),
			Via:     consume(&r, "adopt event", model.ConsumeEvent),
		}
	}
	return level, foreign, nodes, r.done("adopt")
}

// ownerShard maps a configuration fingerprint to its hash-range shard:
// the 64-bit hash space is split into shards equal contiguous ranges.
func ownerShard(hash uint64, shards int) int {
	if shards <= 1 {
		return 0
	}
	rangeSize := ^uint64(0)/uint64(shards) + 1
	s := int(hash / rangeSize)
	if s >= shards { // the last range absorbs the rounding remainder
		s = shards - 1
	}
	return s
}
