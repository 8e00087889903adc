// Package explore is the model checker over the FLP system model: it
// enumerates configurations reachable under all message-system behaviours
// and classifies them by valency, mechanizing the definitions and lemmas of
// Sections 2 and 3 of the paper.
//
//   - [Explore] is budgeted breadth-first reachability over configurations,
//     deduplicated by canonical key.
//   - [Classify] computes the valency of a configuration: the set V of
//     decision values of configurations reachable from it. Bivalence
//     (|V| = 2) is certified by two concrete witness schedules and is exact
//     even under a budget; univalence claims additionally require the
//     exploration to have been exhaustive.
//   - [CensusInitial] mechanizes Lemma 2: it classifies every initial
//     configuration and locates a bivalent one, or, failing that, exhibits
//     the adjacent 0-valent/1-valent pair the proof of Lemma 2 pivots on.
//   - [CensusLemma3] mechanizes Lemma 3: from a bivalent C and an
//     applicable event e, the frontier D = e(reach(C) without e) contains a
//     bivalent configuration. The Theorem 1 adversary (package adversary)
//     runs its own stage search over the same frontier.
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
// default is GOMAXPROCS) workers expand its nodes concurrently, a chunk at
// a time — event enumeration, no-op filtering, successor application, and
// hash precomputation are all pure — and a single coordinator then merges
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
// interner probe, only the edge. Whatever the rows cannot answer — D's own
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
// up. It shares the event filter, the admission [Ledger] and the interner
// with the core but neither its loop nor its rule, and no option selects
// it; package enginetest holds every engine to it — the core and the
// builder here, the cluster, the store, the conformance harness — and
// diamondrule_test.go re-derives every edge the core records with a
// protocol step.
//
// Deduplication uses [model.Interner]: a sharded table keyed by the cached
// 64-bit FNV-1a hash of the canonical key, with hash hits confirmed by full
// key comparison, so a hash collision can only cost time, never a wrong
// dedup. The expensive canonical-key construction happens inside the
// workers; the coordinator mostly compares cached hashes.
//
// Tuning: worker counts above GOMAXPROCS only add coordination overhead,
// and tiny state spaces (the commit protocols' 12–20 configurations) are
// faster inline — set Workers: 1 there, or when single-threaded
// reproducibility of *timing* (not results; those never vary) matters.
// Valency caches ([NewCache], [NewSmartCache]) are safe for concurrent use;
// see the Cache type's thread-safety contract.
package explore
