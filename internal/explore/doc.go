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
//   - [Frontier] is Lemma 3's loop, the one walk of the frontier
//     D = e(ℰ), ℰ = reach(C) without e. [CensusLemma3] mechanizes the
//     lemma on it: from a bivalent C and an applicable event e, D contains
//     a bivalent configuration. The direct routes of [CheckLemma3Diamond]
//     and [CheckLemma3Figure3] (Figures 2 and 3 of its proof) and each
//     stage of the Theorem 1 adversary (package adversary) walk the same
//     loop.
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
// overhead. Measured at 2 vCPUs (go1.24): on explore-wide's shape the pool
// is about 16 % faster than inline expansion (BenchmarkExplorePool, 157
// against 188 ms a pass); on the small, complete graphs of the commit
// protocols and the Lemma 3 census, whose levels are 4–64 configurations
// wide, it is within about 10 % of inline (BenchmarkExploreNarrow: 2pc(4)
// 0.95 against 0.89 ms a check, 3pc(4) 1.06 against 0.95, waitall(3) 1.56
// against 1.44) and ahead on naivemajority(3) (1.98 against 2.09). What it
// still pays there is the duplicates it builds — inline sees every
// duplicate before building it, the pool only those of nodes admitted
// before its chunk — about 1.2× inline's bytes on 2pc(4). Set Workers: 1
// only when single-threaded reproducibility of *timing* (not results; those
// never vary) matters. There is nothing to tune about memory: an
// exploration allocates its configurations, and its node table, index,
// successor rows and buffers and expansion scratch are recycled from the
// last finished exploration through a sync.Pool, up to a fixed cap of
// 16,384 nodes per table (a table far larger than the walk that used it is
// dropped, not kept). So a Visit's path is valid only during its visit;
// called later it panics.
// Valency caches ([NewCache], [NewSmartCache]) are safe for concurrent use;
// see the Cache type's thread-safety contract.
package explore
