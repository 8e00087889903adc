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
// topology, three RPC phases per level:
//
//   - Expand: each shard's primary expands that shard's slice of the
//     frontier through explore.AppendSuccessors and returns candidates tagged
//     with (parent global index, successor index) — their position in the
//     canonical order. Expansion is pure, so a shard whose primary dies
//     mid-phase is simply re-issued to the next live replica, which
//     recomputes the identical candidates from its replicated frontier.
//   - Dedup: the coordinator sorts all candidates into global order,
//     groups them per shard, and sends each shard's batch to every live
//     replica; all replicas apply it (keeping their visited slices
//     identical) and answer which candidates are first-seen. The
//     coordinator settles freshness from the primary's answer and checks
//     the standbys agree.
//   - Adopt: the coordinator admits fresh candidates in global order under
//     the shared explore.Ledger budget, assigns node indices, and hands
//     each admitted node (canonical key + schedule from the root) to every
//     live replica of its shard, which rematerializes the configuration by
//     replay and verifies the key.
//
// Because admission decisions are made only at the coordinator, in the
// same canonical order as the in-process engines, and through the same
// Ledger, results — visit order, counts, witness schedules, the complete
// flag — are byte-identical to explore.Explore at every (workers × shards
// × replicas) combination, with or without worker failures.
//
// # Failure model
//
// RPCs carry deadlines; transient transport failures are retried over
// fresh connections with capped, fully-jittered exponential backoff, and
// worker request handling is idempotent per level (pure expansion, cached
// dedup responses, applied-level guards) so a replayed request is
// answered, not re-applied. A worker that stays unreachable is declared
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
// under failure. Frames above a size threshold may be deflate-compressed
// when the per-connection hello exchange negotiates it (compress.go);
// peers that predate the hello frame interoperate unchanged.
package distexplore
