// Package explore is the model checker over the FLP system model: it
// enumerates configurations reachable under all message-system behaviours
// and classifies them by valency, mechanizing the definitions and lemmas of
// Sections 2 and 3 of the paper.
//
//   - [Explore] is budgeted breadth-first reachability over configurations,
//     deduplicated by configuration identity (fingerprint, then fields).
//   - [Classify] computes the valency of a configuration: the set V of
//     decision values of configurations reachable from it. Bivalence
//     (|V| = 2) is certified by two concrete witness schedules and is exact
//     even under a budget; univalence claims additionally require the
//     exploration to have been exhaustive.
//   - [Census] mechanizes Lemma 2: it classifies every initial
//     configuration and locates a bivalent one, or, failing that, exhibits
//     the adjacent 0-valent/1-valent pair the proof of Lemma 2 pivots on.
//     It is the one loop over initial configurations; the root classifier
//     is its parameter ([CensusInitial] passes [ClassifyRoot]).
//   - [CensusLemma3] mechanizes Lemma 3 for one pair: from a bivalent C
//     and an applicable event e, the frontier D = e(ℰ), ℰ = reach(C)
//     without e, contains a bivalent configuration. Where a complete
//     atlas covers C it walks ℰ on the atlas's rows, the walk the atlas
//     routes of [CheckLemma3Diamond] and [CheckLemma3Figure3] (Figures 2
//     and 3 of its proof) share; elsewhere it walks [Frontier], the loop
//     for graphs that do not close, which the direct routes of those
//     checks and each stage of the Theorem 1 adversary (package
//     adversary) walk too. [Lemma3Atlas] answers the lemma for every
//     pair of an atlas at once, and turns each failure into a blocking
//     certificate, the proof's Case 2.
//   - [CheckCommutativity] and [RandomDisjointSchedules] mechanize Lemma 1.
//   - [CheckPartialCorrectness] verifies the two partial-correctness
//     conditions: no accessible configuration has two decision values, and
//     both values are possible decisions.
//
// Exploration soundness notes. Null events that are no-ops (the process
// state does not change and nothing is sent) are skipped; they generate no
// new configurations, so no reachable configuration is lost. Duplicate
// message copies are interchangeable under multiset semantics, so event
// enumeration per distinct message is exhaustive.
//
// # Parallel exploration
//
// The package has one level-synchronous breadth-first core (core.go),
// which every [Options] value routes to, and one plain sequential loop
// kept apart from it as the reference ([ReferenceExplore]).
//
// [Explore] runs on the core at every worker count: each frontier level is
// a contiguous range of the node table. With [Options.Workers] > 1 (the
// default is GOMAXPROCS) the coordinator and up to Workers−1 helpers —
// goroutines the package starts once and every exploration shares — expand
// its nodes concurrently, a chunk at a time — event enumeration, no-op
// filtering, successor application, and hash precomputation are all pure —
// and the coordinator then merges
// the per-node successor lists back in canonical (node index, event order)
// order; with one worker the coordinator expands each node itself. A chunk
// is the whole level while the budget is far and shrinks to what the
// budget's room can still admit as it nears, so the pool never expands more
// than one chunk the budget then throws away. Because visiting,
// deduplication, budgeting, and witness selection all happen on the
// coordinator in that fixed order, every observable — the visit stream,
// reachable counts, truncation flags, valency witnesses, reports — is
// byte-identical at every worker count. [AtlasBuilder.Extend] and
// [BuildAtlas] are the same core with successor edges kept.
//
// Expansion computes with Lemma 1 instead of re-deriving it. The core
// records every merged node's successor row (event → child id). For a node
// D reached from its tree parent C by e = (p, ·), an event e′ = (q, ·) of D
// with q ≠ p acts on the state q had at C: a null e′ missing from C's row
// was a no-op there and is one at D, so it is dropped without a protocol
// step; an e′ in C's row leads to the sibling D′ = e′(C), and when D′ was
// expanded before D the target e′(D) = e(D′) — Figure 1's commuting diamond
// — is read off D′'s row: no step, no child configuration, no key, no
// index probe, only the edge. Whatever the rows cannot answer — D's own
// process, a message e itself sent, the root, a sibling not before D, a row
// no longer kept — is stepped exactly as before, so the rule only removes
// work; the node set, the edge set, the admission order and every artifact
// are unchanged. Pool workers read only rows closed before their chunk and
// leave a sibling inside it to the coordinator's in-order merge, so the
// rule needs no lock and the result no chunking. Events match by shared
// message record first and by message value second (a sibling may descend
// from another parent; a restored builder's rows were decoded). Walks that
// keep edges have every row; walks that do not keep the previous and the
// current level's, where siblings are.
//
// [ReferenceExplore] is the oracle: the fused sequential loop that steps
// the protocol for every event of every expanded node and looks nothing
// up. It shares the event filter and the admission [Ledger] with the core
// but neither its loop, its rule nor its index — it dedups in a Go map of
// built keys — and no option selects it; package enginetest holds every
// engine to it — the core and the builder here, the cluster, the store,
// the conformance harness — and diamondrule_test.go re-derives every edge
// the core records with a protocol step.
//
// Deduplication indexes the core's node table in a [model.Index]: an
// open-addressed table of (fingerprint, node id) slots with no pointers, no
// locks and no allocation per key, written only by the coordinator. The
// fingerprint is [model.Config.Hash], FNV-1a streamed over the
// configuration's fields, and every fingerprint hit is confirmed by
// [model.Config.Equal], which compares those fields, so a collision can
// only cost time, never a wrong dedup — and no canonical key is built for a
// configuration that is only stepped, hashed and deduplicated. A step is
// looked up before it is built: it is drafted ([model.Drafter]), its
// fingerprint streamed over the drafted fields and hits settled by
// [model.Draft.Same], so a duplicate of a node admitted before the step
// costs its protocol step and no configuration. Inline that is every node
// admitted so far; on the pool it is every node admitted before the chunk,
// and the coordinator catches the rest, built, in merge. A finished
// atlas's index is read-only; a store-loaded atlas fills the same kind of
// index once, from its persisted keys, on the first IDOf.
//
// Tuning: the GOMAXPROCS default holds from the narrowest graphs to the
// widest, and worker counts above GOMAXPROCS only add coordination
// overhead. Measured at 2 vCPUs (go1.24): on explore-wide's shape the
// level pool is about 16 % faster than inline expansion
// (BenchmarkExplorePool, 157 against 188 ms a pass). The loops over every
// initial configuration spend the workers on roots instead (see
// Options.Workers), whose graphs are 4–64 configurations a level wide.
// BenchmarkExploreNarrow at 2 workers against 1 (medians of three
// interleaved runs) reads CheckPartialCorrectness at 0.64 against 1.07 ms
// on 2pc(4), 0.70 against 1.02 on 3pc(4), 0.98 against 1.74 on
// waitall(3) and 1.44 against 2.58 on naivemajority(3), and CensusInitial
// at 0.84 against 1.32 ms on 2pc(4) and 1.82 against 2.98 on
// naivemajority(3), for 1.005× one worker's bytes (TestAllocsRootLoops).
// FindBivalentInitial may stop at any root, so it keeps at most Workers
// roots in flight and gains less: 0.80 against 1.02 ms on
// naivemajority(3), and nothing beyond noise on 2pc(4), whose roots take
// about 60 µs each, less than an offered helper takes to start. The level
// pool on those graphs read within about 10 % of inline and built about
// 1.2× its bytes (TestAllocsPoolNarrow): inline sees every duplicate
// before building it, the pool only those of nodes admitted before its
// chunk. Set Workers: 1 only when single-threaded reproducibility of
// *timing* (not results; those never vary) matters. There is nothing to
// tune about memory: an exploration allocates its configurations, and its
// node table, index, successor rows and buffers and expansion scratch are
// recycled from the last finished exploration through a sync.Pool, up to a
// fixed cap of 16,384 nodes per table (a table far larger than the walk
// that used it is dropped, not kept). So a Visit's path is valid only during its visit;
// called later it panics.
// Valency caches ([NewCache], [NewSmartCache]) are safe for concurrent use;
// see the Cache type's thread-safety contract.
package explore
