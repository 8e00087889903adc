// Package protogen generates valid registry protocols deterministically
// from a seed, so the exploration engines can be differential-tested
// against protocols nobody hand-tuned for.
//
// The FLP construction (Lemmas 2–3, Theorem 1) quantifies over *all*
// protocols in the Section 2 model; the hand-written registry covers a
// handful of well-known ones. This package fills the gap with a protocol
// *space*: Derive(seed, dials) maps a 64-bit seed and a small set of
// generation dials — process count, message alphabet size, transition-table
// density, decision-rule shape — to a Spec, a fully explicit, serializable
// description of a protocol. Package protocols realizes a Spec as a
// model.Protocol from its name (protocols.Lookup(sp.Name())); NewTable
// builds the table template alone. The map is a pure function: same seed
// and dials, same Spec, same behaviour, on every machine and every run.
//
// # Templates
//
// Two templates span structurally different corners of the space:
//
//   - "table": every process runs the same finite transition table over
//     (phase, register, received-symbol) triples. Transitions may advance
//     the phase, rewrite the register, send messages, and write the
//     output register.
//   - "benor": the registry's Ben-Or (protocols.BenOrDeterministic:
//     report / propose rounds with threshold rules, after Aspnes' survey
//     of randomized asynchronous consensus) at derived thresholds and
//     with a round cap. This package only draws the Spec — the three
//     thresholds, the cap and the seed that keys the coin tape;
//     protocols.Lookup runs it on the registry automaton. The protocol is
//     deterministic, so runs replay exactly, but the thresholds and tape
//     vary across seeds, giving genuinely divergent valency structure
//     rather than permutations of one protocol.
//
// # Validity invariants
//
// Every Spec that passes Validate — and Derive only produces such Specs —
// yields a protocol honouring the model.Protocol contract, plus one
// stronger guarantee the conformance harness depends on:
//
//  1. Determinism and side-effect freedom: Step is a pure table lookup
//     (or threshold evaluation) on immutable states.
//  2. Write-once output registers: a decision action on an
//     already-decided state is a no-op.
//  3. Bounded message production: a table transition may send only if it
//     strictly increases the phase, and phases are capped, so a run
//     produces at most N·Phases·MaxSends messages ("benor" caps rounds,
//     and a process past its last round absorbs every delivery). The
//     reachable configuration graph of every generated protocol is
//     therefore finite, which is what lets the conformance harness
//     demand complete explorations at small budgets.
//  4. Canonical state keys: states encode through package enc, so
//     configuration identity — and with it every engine's visited set —
//     is exact.
//
// Generated protocols need not *solve* consensus: specs whose thresholds
// or tables violate agreement, block forever, or decide trivially are the
// point — the engines must agree with each other on every protocol in the
// model, not only on well-behaved ones.
//
// # Names
//
// Spec.Name() encodes the entire spec into the protocol's name:
// seed-derived specs compactly as "gen:d1:<seed>:<dials>", arbitrary
// (hand-built or shrunk) specs as "gen:j1:<base64 JSON>". FromName inverts
// both. The protocol registry resolves "gen:"-prefixed names through this
// package, which is what lets the distributed engine's workers — which
// reconstruct protocols from names — run generated protocols unchanged,
// and lets `flpcheck -genseed` replay any generated protocol
// interactively.
package protogen
