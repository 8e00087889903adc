package distexplore

import (
	"fmt"
	"testing"

	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
)

// BenchmarkClusterOp is one clean cluster-recover op per iteration: a
// budget kernel explored, with a visit callback, on a long-lived 3-worker,
// 6-shard, R = 2 loopback cluster that has served other jobs before — the
// iterations walk the kernel's input vectors, as the benchmark's clean class
// does. ns, B and allocs per op are the local view of op_p50_ms and
// alloc_mb_per_op on cluster-recover; CI runs it at -benchtime 1x.
func BenchmarkClusterOp(b *testing.B) {
	for _, k := range budgetKernels {
		b.Run(fmt.Sprintf("%s%d@%d", k.name, k.n, k.budget), func(b *testing.B) {
			lb := NewLoopback()
			addrs, _ := startWorkers(b, lb, []string{"o0", "o1", "o2"})
			cl := dialCluster(b, lb, addrs, failoverOptions())
			inputs := model.AllInputs(k.n)
			visit := func(*model.Config, int, func() model.Schedule) bool { return false }
			run := func(i int) {
				task := Task{Protocol: k.name, N: k.n, Inputs: inputs[i%len(inputs)], Shards: 6, Replicas: 2,
					Options: explore.Options{MaxConfigs: k.budget}}
				if _, _, err := cl.Explore(task, visit); err != nil {
					b.Fatal(err)
				}
			}
			run(len(inputs) - 1) // the cluster is not new when the timed ops arrive
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(i)
			}
		})
	}
}
