// Package conformance is the cross-engine differential harness: it takes
// one case (an enginetest.Case: protocol by name, inputs, prefix, avoided
// event, bounds, stop) and runs the same exploration through every engine
// the repository has — the in-process engine at one worker and on the
// pool, the distributed engine over loopback (fault-free and under a
// scripted FaultyTransport kill), and the one-pass valency atlas — judging
// each against enginetest's reference with enginetest's diffs: completion
// flag, visit count, the full visit stream (configuration keys, depths,
// witness schedules), the atlas's node table and sampled valency
// classifications.
//
// The harness is the consumer the protogen generator was built for: a
// generated protocol that makes no sense as a consensus algorithm is
// still a perfectly good differential test case, because the contract
// under test is "all engines agree", not "the protocol is correct".
// Check accepts any case whose protocol name resolves through the protocol
// registry (generated gen: names resolve via the registry's passthrough),
// so the same harness also covers the hand-written protocols.
//
// A disagreement is reported as *Divergence naming the engine and the
// first diverging observable. Shrink then reduces a failing generated
// spec to a locally minimal reproducer by greedy first-improvement
// descent over spec transforms (drop a process, drop a phase/register/
// symbol, inert a table entry, drop a send, clear a decision, zero an
// input, and the Ben-Or analogues), re-checking the failure predicate
// after each candidate. Minimal reproducers round-trip through
// enginetest.Fixture files, which is how the fuzz targets dump their
// findings and how the committed corpus under testdata/protogen is loaded.
package conformance
