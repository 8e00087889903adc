GO ?= go

.PHONY: all build test test-race test-short test-dist test-chaos test-serve test-store serve fuzz fuzz-conformance corpus corpus-check bench bench-parallel bench-valency alloc-guards bench-alloc bench-e2e vet

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race coverage for the concurrent engine: the parallel explorer, the
# config key/hash atomics, the interner, the shared valency cache, and the
# protocol states, whose vote and inbox slices sibling configurations share
# across pool workers, and the send-order tracker with its copy-on-deliver
# oracle. The named packages carry the concurrency stress tests; the final
# sweep covers the rest of the tree.
test-race:
	$(GO) test -race ./internal/explore ./internal/model ./internal/fifo/... ./internal/adversary/... ./internal/distexplore ./internal/protocols/... ./internal/protogen/...
	$(GO) test -race -short ./...

# The distributed engine end to end: the full differential/fault suite,
# then flpcluster's census over a 1-coordinator/3-worker/6-shard loopback
# cluster on two protocols, from every input vector, which exits 1 unless
# every count matches the local engine's.
test-dist:
	$(GO) test ./internal/distexplore
	$(GO) run ./cmd/flpcluster explore -cluster loopback:3 -shards 6 -n 3 -protocol naivemajority
	$(GO) run ./cmd/flpcluster explore -cluster loopback:3 -shards 6 -n 3 -protocol 2pc

# Fault injection under the race detector: the oracle suite's cluster
# factories (clean, a scripted kill, a kill inside a chunked level, a
# coordinator crash and resume, each over the whole case table), the
# scripted kill sweep (every worker × every level), kills inside a chunked
# level (on the adopt batch that opens it and on an expand request),
# mixed-fault chaos seeds, the R=1 abort contract, coordinator kills at
# every level boundary with checkpoint resume, and a lost shard (also inside
# a chunked level) resumed from its checkpoint — the recovery half of the
# byte-identical guarantee.
test-chaos:
	$(GO) test -race -count=1 -run 'TestClusterSuite|TestFailover|TestKillInside|TestReplicasOne|TestChaos|TestInterrupt|TestWorkerDrain|TestWorkerLost|TestRetryAfterConnLoss|TestCheckpoint|TestLostShard' ./internal/distexplore

test-short:
	$(GO) test -short ./...

# The serving layer under the race detector: job queue, drain state
# machine, the hit path that answers a cached valency at admission
# (TestCachedValency*), the oracle's valency suite served queued and then
# cached (TestValencySuite, here and for the in-process pool),
# singleflight atlas cache, and the stdlib Prometheus encoder.
test-serve:
	$(GO) test -race -count=1 ./internal/serve ./internal/promtext
	$(GO) test -race -run 'TestAtlasCache|TestTryWarmSharesBuilds|TestValencySuite' -count=1 ./internal/explore

# The persistent atlas store under the race detector: format round-trips,
# corruption recovery (mangled-artifact table + byte-flip sweep), the
# oracle suite through the store built cold and resumed, the atlas
# builder's own run of that suite, frontier resume, and the serving
# layer's restart-hit contract.
test-store:
	$(GO) test -race -count=1 ./internal/atlasstore
	$(GO) test -race -count=1 -run 'TestAtlasBuilder|TestAtlasDifferentialAgainstClassify|TestLoadAtlas|TestAtlasCacheBackend' ./internal/explore
	$(GO) test -race -count=1 -run 'TestEngineSuite/builder' ./internal/explore
	$(GO) test -race -count=1 -run 'TestServerAtlasDir|TestServerWithoutAtlasDir' ./internal/serve

# Run exploration-as-a-service locally (ctrl-C drains gracefully).
serve:
	$(GO) run ./cmd/flpserve -listen 127.0.0.1:8080 -pool 4

FUZZTIME ?= 30s

# Native fuzzing: the configuration key/hash contract (equal keys exactly
# for the same configuration), a step's draft against the configuration it
# builds (fingerprint and identity without building), the field escaping message keys rest on
# (never a separator, never a collision, never a confused field boundary),
# every payload decoder of the cluster protocol (error, or re-encodes to
# the same bytes; never a panic, never a slice sized past the payload), and
# the disk decoder, whose one format holds both atlas artifacts and run
# checkpoints (corrupt error, or re-encodes to equal columns; never a
# panic, never a column past the input), deadstart's S2 message-body
# parser (error or a round-trip; never a panic), and the round engine's
# sampler against its walk (every seeded FloodSet or DLS run is a path of
# the walk).
fuzz:
	$(GO) test ./internal/model -run '^$$' -fuzz FuzzConfigKeyHash -fuzztime $(FUZZTIME)
	$(GO) test ./internal/model -run '^$$' -fuzz FuzzDraftMatchesBuild -fuzztime $(FUZZTIME)
	$(GO) test ./internal/enc -run '^$$' -fuzz FuzzEscapeInjective -fuzztime $(FUZZTIME)
	$(GO) test ./internal/enc -run '^$$' -fuzz FuzzBuilderFieldBoundaries -fuzztime $(FUZZTIME)
	$(GO) test ./internal/distexplore -run '^$$' -fuzz FuzzWirePayloads -fuzztime $(FUZZTIME)
	$(GO) test ./internal/atlasstore -run '^$$' -fuzz FuzzDecodeArtifact -fuzztime $(FUZZTIME)
	$(GO) test ./internal/deadstart -run '^$$' -fuzz FuzzParseS2 -fuzztime $(FUZZTIME)
	$(GO) test ./internal/syncround -run '^$$' -fuzz FuzzRoundSampler -fuzztime $(FUZZTIME)

# Cross-engine conformance fuzzing: random generated protocols through
# sequential, parallel, distributed (fault-free and under a scripted
# kill), and atlas engines, asserting byte-identical results. A failing
# input is shrunk to a minimal reproducer and dumped under
# testdata/failures/ as a loadable fixture; replay it exactly with
# `go run ./cmd/flpgen -check <name> -inputs <bits> -budget <max_configs>`,
# the three fields of the fixture (the scripted kill follows from them).
fuzz-conformance:
	$(GO) test ./internal/conformance -fuzz FuzzConformanceTable -fuzztime $(FUZZTIME)
	$(GO) test ./internal/conformance -fuzz FuzzConformanceBenOr -fuzztime $(FUZZTIME)

# Re-mint the committed conformance corpus under testdata/protogen.
corpus:
	$(GO) run ./cmd/flpgen -out testdata/protogen -count 20

# The committed corpus is what flpgen mints today: re-mint it into a
# temporary directory and diff. Each fixture's note records the census of
# the protocol it was minted from, so a change in what a generated name
# builds shows up here.
corpus-check:
	tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/flpgen -out $$tmp -count 20 >/dev/null && \
	diff -r $$tmp testdata/protogen

bench:
	$(GO) test -bench . -benchmem -run '^$$' .

# The repo's end-to-end benchmark (BENCHMARK.json, bench/README.md): one
# run of `go run ./bench` per declared workload, each printing its five
# end-to-end metrics as the last stdout line. bench/ has its own tests
# (`$(GO) test ./bench`).
bench-e2e:
	for w in explore-wide lemma-pipeline cluster-recover serve-mixed; do \
		$(GO) run ./bench -workload $$w || exit 1; \
	done

# The parallel exploration guardrail: E2/E3 at GOMAXPROCS 1 vs 4 (the
# default worker count follows GOMAXPROCS), plus the explicit-worker-count
# benchmark, then the pool against inline expansion on the narrow, complete
# graphs of lemma-pipeline's census and correctness ops.
bench-parallel:
	$(GO) test -bench 'BenchmarkE11ParallelExplore' -benchmem -run '^$$' .
	$(GO) test -bench 'BenchmarkE2InitialValency|BenchmarkE3BivalencePreservation' -cpu 1,4 -run '^$$' .
	$(GO) test -bench 'BenchmarkExploreNarrow' -run '^$$' ./internal/explore

# The valency atlas guardrail: whole-graph classification against one
# budgeted BFS per configuration, and the warmed-cache read path.
bench-valency:
	$(GO) test -bench 'BenchmarkValencyPerConfig|BenchmarkAtlasCensus|BenchmarkAtlasWarmedCache' -benchmem -run '^$$' ./internal/explore

# The allocation guardrail: the AllocsPerRun and bytes-per-successor pins
# (in distexplore: bytes per configuration of one budgeted loopback run)
# plus the hot-path benchmarks the EXPERIMENTS.md numbers are regenerated
# from: three on the naivemajority(3) fixture, then one successor of every
# registry kernel (ns, B and allocs per successor), then one pass of the
# explore-wide pool through the engine at 1 and GOMAXPROCS workers (ns, B
# and allocs per pass), then CheckPartialCorrectness on four narrow,
# complete graphs at the same two worker counts, then one directed probe of paxos(3) that finds
# both values and one that runs all 39 runs, then one lemma-pipeline
# adversary op per kernel,
# then one cached valency answered over a loopback socket with the job
# journal on disk (serve-mixed's hot request), then one paxos(3) atlas
# artifact encoded and decoded (every cold save and warm load).
# In adversary the pin is bytes per directed probe step; in fifo, zero
# allocations for a send and a head delivery on a warm queue; in
# protocols, one sends slice per Paxos step; in protogen, zero
# allocations to validate a valid table; in serve, the allocations of one
# hot request through Handler(); in atlasstore, the allocations and bytes
# of one artifact encode. alloc-guards is the pins alone, the step
# CI runs, over the one package list both targets share.
ALLOC_PKGS = ./internal/model ./internal/fifo ./internal/explore ./internal/distexplore ./internal/protocols ./internal/adversary ./internal/protogen ./internal/serve ./internal/atlasstore

alloc-guards:
	$(GO) test -run 'TestAllocs' -count=1 $(ALLOC_PKGS)

bench-alloc: alloc-guards
	$(GO) test -bench 'BenchmarkApplyOnly|BenchmarkConfigHash|BenchmarkInternHit' -benchmem -run '^$$' ./internal/model
	$(GO) test -bench 'BenchmarkExpand' -benchtime 20x -run '^$$' ./internal/explore
	$(GO) test -bench 'BenchmarkExplorePool' -benchtime 5x -run '^$$' ./internal/explore
	$(GO) test -bench 'BenchmarkExploreNarrow' -benchtime 100x -run '^$$' ./internal/explore
	$(GO) test -bench 'BenchmarkProbeValencies' -benchmem -run '^$$' ./internal/explore
	$(GO) test -bench 'BenchmarkAdversaryOp' -benchtime 12x -benchmem -run '^$$' ./internal/adversary
	$(GO) test -bench 'BenchmarkServeHotValency' -benchmem -run '^$$' ./internal/serve
	$(GO) test -bench 'BenchmarkEncodeArtifact|BenchmarkDecodeArtifact' -benchmem -run '^$$' ./internal/atlasstore

# gofmt -l lists every file that is not gofmt-clean; the tree has none.
vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"
