package distexplore

import (
	"bytes"
	"encoding/binary"
	"fmt"

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

// resize returns s with length n, keeping its elements: a decoder that
// reuses a slice gets back, in each element, the storage of the last
// decode's inner slices. It grows like grow does, for the same reason.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		s = append(make([]T, 0, n), s[:cap(s)]...)
	}
	return s[:n]
}

func appendWireKey(b []byte, k wireKey) []byte {
	return model.AppendBytes(binary.LittleEndian.AppendUint64(b, k.Hash), k.Key)
}

func readWireKey(r *model.Reader, what string) wireKey {
	return wireKey{Hash: r.Uint64(what), Key: r.Bytes(what)}
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
	r := model.NewReader(b)
	var q initReq
	q.Protocol = r.String("init protocol")
	q.N = r.Int("init n")
	q.Inputs = r.Inputs("init inputs")
	q.Prefix = r.Schedule("init prefix")
	switch r.Int("init avoid flag") {
	case 0:
	case 1:
		e := r.Event("init avoid")
		q.Avoid = &e
	default:
		r.Fail("init avoid flag", fmt.Errorf("not 0 or 1"))
	}
	for _, dst := range []*int{&q.Shards, &q.WorkerCount, &q.WorkerIndex, &q.Replicas} {
		*dst = r.Int("init shard layout")
	}
	if err := readWireVersion(&r, "the coordinator"); err != nil {
		return nil, fmt.Errorf("init: %w", err)
	}
	return &q, r.Done("init")
}

// readWireVersion reads the version the peer sent at init — the last field
// of the request, the whole acknowledgement — and holds it to the
// one-release rule. A peer from before versions existed sent nothing there.
func readWireVersion(r *model.Reader, peer string) error {
	const fix = "run one release on every cluster member"
	if r.Err() == nil && r.Len() == 0 {
		return fmt.Errorf("%s predates wire versions, this side speaks version %d; %s", peer, wireVersion, fix)
	}
	if v := r.Int("wire version"); r.Err() == nil && v != wireVersion {
		return fmt.Errorf("%s speaks wire version %d, this side version %d; %s", peer, v, wireVersion, fix)
	}
	return nil
}

// checkInitAck reads a worker's answer to init: its wire version.
func checkInitAck(b []byte) error {
	r := model.NewReader(b)
	if err := readWireVersion(&r, "the worker"); err != nil {
		return err
	}
	return r.Done("init ack")
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
	r := model.NewReader(b)
	q := expandReq{Level: r.Int("expand level"), Lo: r.Int("expand lo"), Hi: r.Int("expand hi")}
	q.Shards = make([]int, r.Count("expand shards"))
	for i := range q.Shards {
		q.Shards[i] = r.Int("expand shard")
	}
	return &q, r.Done("expand")
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

// decodeCandidates appends the candidates of an expand response to cands;
// their keys alias b.
func decodeCandidates(b []byte, cands []candidate) (level int, _ []candidate, err error) {
	r := model.NewReader(b)
	level = r.Int("candidates level")
	n := len(cands)
	cands = resize(cands, n+r.Count("candidates count"))
	for i := n; i < len(cands); i++ {
		cands[i] = candidate{
			Parent:  r.Uvarint("candidate parent"),
			SuccIdx: r.Uvarint("candidate successor index"),
			wireKey: readWireKey(&r, "candidate key"),
			Via:     r.Event("candidate event"),
		}
	}
	return level, cands, r.Done("candidates")
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

// decodeDedupReq decodes a dedup request into groups' storage; the keys
// alias b.
func decodeDedupReq(b []byte, groups []shardGroup) (level, lo int, _ []shardGroup, err error) {
	r := model.NewReader(b)
	level, lo = r.Int("dedup level"), r.Int("dedup lo")
	groups = resize(groups, r.Count("dedup groups"))
	for i := range groups {
		groups[i].Shard = r.Int("dedup shard")
		groups[i].Keys = resize(groups[i].Keys[:0], r.Count("dedup group size"))
		for j := range groups[i].Keys {
			groups[i].Keys[j] = readWireKey(&r, "dedup key")
		}
	}
	return level, lo, groups, r.Done("dedup")
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

// decodeDedupResp decodes a dedup answer into groups' storage.
func decodeDedupResp(b []byte, groups []shardIndices) (level, lo int, _ []shardIndices, err error) {
	r := model.NewReader(b)
	level, lo = r.Int("dedup answer level"), r.Int("dedup answer lo")
	groups = resize(groups, r.Count("dedup answer groups"))
	for i := range groups {
		groups[i].Shard = r.Int("dedup answer shard")
		groups[i].Fresh = resize(groups[i].Fresh[:0], r.Count("dedup answer size"))
		for j := range groups[i].Fresh {
			groups[i].Fresh[j] = r.Uvarint("dedup answer index")
		}
	}
	return level, lo, groups, r.Done("dedup answer")
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

// decodeAdoptReq decodes an adopt request into the storage of foreign and
// nodes; the keys alias b.
func decodeAdoptReq(b []byte, foreign []foreignParent, nodes []adoptNode) (level int, _ []foreignParent, _ []adoptNode, err error) {
	r := model.NewReader(b)
	level = r.Int("adopt level")
	foreign = resize(foreign, r.Count("adopt foreign parent count"))
	for i := range foreign {
		foreign[i] = foreignParent{
			Index:    r.Uvarint("adopt foreign parent index"),
			Schedule: r.Schedule("adopt foreign parent schedule"),
		}
	}
	nodes = resize(nodes, r.Count("adopt count"))
	for i := range nodes {
		nodes[i] = adoptNode{
			Index:   r.Uvarint("adopt index"),
			Depth:   r.Uvarint("adopt depth"),
			wireKey: readWireKey(&r, "adopt key"),
			Parent:  r.Uvarint("adopt parent"),
			Via:     r.Event("adopt event"),
		}
	}
	return level, foreign, nodes, r.Done("adopt")
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
