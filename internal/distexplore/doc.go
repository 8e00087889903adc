// Package distexplore runs the breadth-first reachability engine of
// package explore across multiple worker processes, partitioning the
// visited set by configuration hash range.
//
// # Architecture
//
// The 64-bit fingerprint space is split into S contiguous shard ranges;
// shard s is replicated on the R workers (s+r) mod W (replica.go), the
// first live of which is its primary. Each worker holds the visited-set
// entries and the frontier configurations whose hashes land in the shards
// it replicates, so memory scales out with the cluster — no member ever
// holds the whole state space — while every shard survives the loss of
// R−1 of its holders.
//
// A single coordinator drives the level-synchronous loop in a star
// topology. A level is walked in chunks of parent indices [lo, hi), each
// sized from the ledger by the rule the in-process level engine uses
// (explore.SpecChunk, the live workers as the pool). Each chunk runs two RPC
// phases and is admitted before the next is sized, so once the ledger seals
// nothing further is expanded, keyed or shipped; a third ends the level:
//
//   - Expand: each shard's primary steps every event of that shard's
//     frontier nodes inside the chunk once, drafting and keying each
//     successor before it is built (model.Drafter), and returns candidates
//     tagged with (parent global index, successor index) — their position
//     in the canonical order. Expansion is pure, so a shard whose
//     primary dies mid-phase is simply re-issued to the next live replica,
//     which recomputes the identical candidates from its replicated
//     frontier.
//   - Dedup: the coordinator sorts the chunk's candidates into global
//     order, groups their identities per shard, and sends each shard's
//     batch to every live replica; all replicas apply it (keeping their
//     visited slices identical) and answer which candidates are first-seen.
//     The coordinator settles freshness from the primary's answer, checks
//     the standbys agree, and admits the fresh candidates in global order
//     under the shared explore.Ledger budget, assigning node indices.
//   - Adopt, once per level: each admitted node (identity + its parent's
//     index and the event from it) goes to every live replica of its shard,
//     which takes the configuration from what it expanded this level or
//     steps it once from the parent — held in the previous level's frontier
//     when the replica replicates the parent's shard, otherwise shipped in
//     the same frame as a root schedule, once per distinct parent — and
//     verifies key and fingerprint.
//
// A configuration's identity on the wire is what it is in process: the
// binary canonical key (model.Config.KeyBytes) with its fingerprint, the
// FNV-1a hash of exactly those bytes. Three of every four successors are
// duplicates (commuting diamonds), and three kinds are dropped before dedup
// because dedup would call them seen anyway: a worker drops a successor
// whose key the same expand call already emitted, and one that lands in a
// shard it replicates and is already in its visited slice; the coordinator
// keeps the first occurrence of a key per chunk in merge order. None of
// them can be the occurrence the sequential engine admits, so admission
// order, edges and paths are unchanged (DESIGN.md §4 has the argument). A
// worker builds only the successors it emits into a shard it replicates,
// the ones adoption takes back from it; every other one costs its step and
// its key, written into scratch.
//
// Because admission decisions are made only at the coordinator, in the
// same canonical order as the in-process engines, and through the same
// Ledger, results — visit order, counts, witness schedules, the complete
// flag — are byte-identical to explore.Explore at every (workers × shards
// × replicas) combination and however the levels are chunked, with or
// without worker failures.
//
// # Failure model
//
// RPCs carry deadlines; transient transport failures are retried over
// fresh connections with capped, fully-jittered exponential backoff, and
// worker request handling is idempotent (pure expansion; the last dedup
// chunk, named by (level, lo), cached with its response; adoption applied
// once per node index) so a replayed request is answered, not re-applied. A worker that stays unreachable is declared
// lost for the rest of the run: with replication (R ≥ 2) its shards fail
// over to their standbys and the run continues byte-identically; when a
// shard's entire replica chain is gone (always, at R = 1) the exploration
// aborts with a diagnostic error rather than hanging or silently
// re-exploring. Worker-reported errors (integrity failures) abort without
// failover — an answering worker is not crashed, and promoting its standby
// would mask real divergence.
//
// # Transports
//
// The Transport interface has two implementations: TCP for real clusters
// and Loopback, which runs every cluster member inside one process over
// in-memory pipes — the same framing, deadline, and retry code paths,
// which is how the differential tests pin distributed results to the
// sequential engine byte for byte. FaultyTransport (faults.go) wraps
// either with a seeded, deterministic fault plan — dropped connections,
// delayed or truncated frames, a scripted worker kill at a scripted level
// — which is how the failover tests prove the byte-identical contract
// under failure. Frames go out as they are encoded, with nothing negotiated
// per connection. There is one payload format (wire.go): the init exchange carries its version
// both ways and refuses a member that speaks another, and every decoder
// bounds the counts it reads by the bytes that remain, so a corrupt frame
// is an error answer (a WorkerError at the coordinator), never a panic.
package distexplore
