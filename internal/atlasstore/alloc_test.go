package atlasstore

import (
	"runtime"
	"testing"
)

// TestAllocsEncodeArtifact pins what rendering the paxos(3) atlas at 2,000
// configurations (BenchmarkEncodeArtifact's, 543,675 bytes) allocates: the
// output buffer, sized once, plus the event dictionary and its two index
// columns. Measured 19 allocations and 1.078 bytes per artifact byte. A
// buffer that append regrows is copied about five times over (4.74 bytes
// per byte), so the 1.10 ceiling fails on any regrowth.
func TestAllocsEncodeArtifact(t *testing.T) {
	pr, root, snap := registrySnapshot(t, "paxos")
	a := &artifact{Key: lineage(pr, root), RunCheckpoint: RunCheckpoint{Snap: snap}}
	size := len(encodeArtifact(a))
	const runs = 20
	allocs := testing.AllocsPerRun(runs, func() { encodeArtifact(a) })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		encodeArtifact(a)
	}
	runtime.ReadMemStats(&after)
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(size)
	t.Logf("%.0f allocations and %.3f bytes per artifact byte to encode %d bytes", allocs, perByte, size)
	const ceiling = 19
	if allocs > ceiling {
		t.Errorf("encoding allocates %.0f times, ceiling %d", allocs, ceiling)
	}
	if perByte > 1.10 {
		t.Errorf("encoding allocates %.3f bytes per artifact byte, ceiling 1.10", perByte)
	}
}
