package distexplore

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/flpsim/flp/internal/atlasstore"
	"github.com/flpsim/flp/internal/enginetest"
	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protocols"
)

// The recovery suite pins the crash-recoverability tentpole: a coordinator
// killed at any point past a level boundary restarts from the last durable
// checkpoint with byte-identical counts, visit order, and witness schedules,
// re-expanding nothing before the checkpointed level (pinned by the
// expansion counters); and a lost sole replica aborts with a diagnostic
// that names the checkpoint to resume from.

func openCheckpoints(t *testing.T, dir string) *atlasstore.CheckpointStore {
	t.Helper()
	cks, err := atlasstore.OpenCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	cks.SetLog(t.Logf)
	return cks
}

// ckptFiles lists the checkpoint artifacts currently in dir.
func ckptFiles(t *testing.T, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

// recoveryTask is the census kernel the sweep runs: deep enough for kills
// at levels 1-4, truncated by budget like a production census.
func recoveryTask() Task {
	return Task{Protocol: "naivemajority", N: 3, Inputs: model.Inputs{0, 1, 1},
		Options: explore.Options{MaxConfigs: 300}, Shards: 6, Replicas: 2}
}

// cleanCheckpointedRun runs the task uninterrupted with checkpointing on
// and returns its observables plus RunStats — the oracle the crashed-and-
// resumed runs are compared against.
func cleanCheckpointedRun(t *testing.T, task Task, cks *atlasstore.CheckpointStore) (enginetest.Stream, RunStats) {
	t.Helper()
	lb := NewLoopback()
	addrs, _ := startWorkers(t, lb, []string{"cc0", "cc1", "cc2"})
	cl := dialCluster(t, lb, addrs, failoverOptions())
	task.Checkpoints = cks
	return record(t, cl, task), cl.RunStats()
}

// crashRun runs the task over a transport scripted to kill the coordinator
// at the given level, with checkpointing on. It must fail; whatever the
// store last persisted is the only surviving state.
func crashRun(t *testing.T, task Task, cks *atlasstore.CheckpointStore, killLevel int) {
	t.Helper()
	ft := NewFaultyTransport(NewLoopback(), FaultPlan{CoordKillLevel: killLevel})
	addrs, _ := startWorkers(t, ft, []string{"x0", "x1", "x2"})
	cl := dialCluster(t, ft, addrs, failoverOptions())
	task.Checkpoints = cks
	_, _, err := cl.Explore(task, func(*model.Config, int, func() model.Schedule) bool { return false })
	if err == nil {
		t.Fatalf("coordinator kill at level %d did not abort the run", killLevel)
	}
	if !ft.coordKilled() {
		t.Fatalf("fault plan never fired: coordinator was not killed at level %d", killLevel)
	}
}

// resumeRun restarts the task with -resume semantics on a fresh cluster
// and returns its observables and stats.
func resumeRun(t *testing.T, task Task, cks *atlasstore.CheckpointStore) (enginetest.Stream, RunStats) {
	t.Helper()
	lb := NewLoopback()
	addrs, _ := startWorkers(t, lb, []string{"rr0", "rr1", "rr2"})
	cl := dialCluster(t, lb, addrs, failoverOptions())
	task.Checkpoints = cks
	task.Resume = true
	return record(t, cl, task), cl.RunStats()
}

// hookCrashRun crashes the coordinator the way flpcluster's -kill-at-level
// does: the checkpoint hook fails the run at the given level, right after
// that boundary's checkpoint was flushed for it.
func hookCrashRun(t *testing.T, task Task, cks *atlasstore.CheckpointStore, level int) {
	t.Helper()
	lb := NewLoopback()
	addrs, _ := startWorkers(t, lb, []string{"h0", "h1", "h2"})
	cl := dialCluster(t, lb, addrs, failoverOptions())
	task.Checkpoints = cks
	crash := errors.New("injected coordinator crash")
	task.CheckpointHook = func(l int) error {
		if l >= level {
			return crash
		}
		return nil
	}
	if _, _, err := cl.Explore(task, nil); !errors.Is(err, crash) {
		t.Fatalf("checkpoint hook at level %d: run ended with %v, want the injected crash", level, err)
	}
}

// TestCheckpointResumeCoordKillEachLevel is the chaos sweep: the
// coordinator is killed at each level of the census kernel — by the
// transport, in the middle of the level's frames, or by the checkpoint hook,
// right at the boundary — then restarted with resume on a fresh cluster.
// Every restart must be byte-identical to the uninterrupted run, and the
// expansion counters must show zero re-expanded nodes before the
// checkpointed level.
func TestCheckpointResumeCoordKillEachLevel(t *testing.T) {
	task := recoveryTask()
	ref := reference(t, task)
	clean, cleanStats := cleanCheckpointedRun(t, task, openCheckpoints(t, t.TempDir()))
	mustAgree(t, "clean-checkpointed", ref, clean)

	type crashCase struct {
		name        string
		crash       func(*testing.T, Task, *atlasstore.CheckpointStore, int)
		level       int
		resumeLevel int // the last boundary durable when the crash hits; -1: none
	}
	// A transport kill at level L lands among L's frames, after the L-1
	// boundary was written — and level-1 frames fly before the first
	// boundary write. A hook crash at L has L's own boundary on disk.
	cases := []crashCase{
		{"coordkill-at-level1", crashRun, 1, -1},
		{"coordkill-at-level2", crashRun, 2, 1},
		{"coordkill-at-level3", crashRun, 3, 2},
		{"coordkill-at-level4", crashRun, 4, 3},
		{"hook-at-level3", hookCrashRun, 3, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cks := openCheckpoints(t, dir)
			tc.crash(t, task, cks, tc.level)

			wantResume := tc.resumeLevel >= 0
			if got := len(ckptFiles(t, dir)) > 0; got != wantResume {
				t.Fatalf("after crash at level %d: checkpoint on disk = %v, want %v", tc.level, got, wantResume)
			}

			got, st := resumeRun(t, task, cks)
			mustAgree(t, "resume-after-"+tc.name, ref, got)

			// The expansion-counter pin: the resumed run's total equals the
			// uninterrupted run's, and everything before the checkpointed
			// level was restored, not re-expanded.
			if st.ExpandedNodes != cleanStats.ExpandedNodes {
				t.Errorf("expanded total %d, want %d", st.ExpandedNodes, cleanStats.ExpandedNodes)
			}
			if wantResume {
				if st.ResumedLevel != tc.resumeLevel {
					t.Errorf("resumed at level %d, want %d (the last completed boundary)", st.ResumedLevel, tc.resumeLevel)
				}
				if st.ResumedNodes == 0 {
					t.Error("resume restored zero nodes")
				}
				if st.LiveExpanded >= cleanStats.ExpandedNodes {
					t.Errorf("resume re-expanded the restored prefix: live %d of %d total",
						st.LiveExpanded, cleanStats.ExpandedNodes)
				}
				if st.LiveExpanded+st.ExpandedNodes-cleanStats.ExpandedNodes < 0 {
					t.Errorf("inconsistent counters: %+v", st)
				}
			} else {
				if st.ResumedLevel != -1 || st.LiveExpanded != st.ExpandedNodes {
					t.Errorf("expected a fresh start, got stats %+v", st)
				}
			}

			// A completed run clears its checkpoint: nothing left to resume.
			if left := ckptFiles(t, dir); len(left) != 0 {
				t.Errorf("completed resume left checkpoints behind: %v", left)
			}
		})
	}
}

// TestCheckpointCleanRunLeavesNoFile pins the lifecycle on the happy path:
// a checkpointed run that completes normally checkpoints every boundary
// (observable in the stats) and leaves nothing on disk at the end. The
// write-behind may legitimately skip every physical write on a run this
// fast — boundaries are throttled between fences, and the deliberate end
// discards the pending one rather than writing a file just to delete it —
// so disk activity is pinned by the crash tests, not here.
func TestCheckpointCleanRunLeavesNoFile(t *testing.T) {
	dir := t.TempDir()
	cks := openCheckpoints(t, dir)
	_, st := cleanCheckpointedRun(t, recoveryTask(), cks)
	if st.Checkpoints == 0 {
		t.Error("checkpointed run recorded no boundary checkpoints")
	}
	if left := ckptFiles(t, dir); len(left) != 0 {
		t.Errorf("completed run left checkpoints behind: %v", left)
	}
}

// TestCheckpointCorruptRestartsFresh pins the detect-log-delete contract
// end to end: a bit-flipped checkpoint is rejected at resume, counted,
// deleted, and the run restarts from scratch — slower, never wrong.
func TestCheckpointCorruptRestartsFresh(t *testing.T) {
	task := recoveryTask()
	dir := t.TempDir()
	cks := openCheckpoints(t, dir)
	crashRun(t, task, cks, 3)

	files := ckptFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("expected one checkpoint after the crash, found %v", files)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	got, st := resumeRun(t, task, cks)
	mustAgree(t, "resume-after-corruption", reference(t, task), got)
	if st.ResumedLevel != -1 {
		t.Errorf("corrupt checkpoint resumed at level %d, want a fresh start", st.ResumedLevel)
	}
	if ckStats := cks.Stats(); ckStats.Corrupt != 1 {
		t.Errorf("store stats %+v, want exactly 1 corrupt", ckStats)
	}
}

// TestCheckpointTruncatedBelowBudgetRestartsFresh: a run takes a truncated
// ledger for a sealed frontier, and only a refusal at a full budget
// truncates one, so a checkpoint that says truncated below its budget —
// well-formed, but never written by a run — is discarded at resume like a
// corrupt one, and the run restarts from scratch.
func TestCheckpointTruncatedBelowBudgetRestartsFresh(t *testing.T) {
	task := recoveryTask()
	cks := openCheckpoints(t, t.TempDir())
	crashRun(t, task, cks, 3)
	pr, err := protocols.Resolve(task.Protocol, task.N)
	if err != nil {
		t.Fatal(err)
	}
	key := atlasstore.RunKey{Protocol: task.Protocol, N: task.N, RootKey: model.MustInitial(pr, task.Inputs).KeyBytes(), MaxConfigs: task.Options.MaxConfigs}
	ck := cks.Load(key)
	if ck == nil || ck.Truncated || ck.Snap.Len() >= key.MaxConfigs {
		t.Fatalf("the crash left checkpoint %+v, want one below the budget, not truncated", ck)
	}
	ck.Truncated = true
	cks.Save(key, ck)

	got, st := resumeRun(t, task, cks)
	mustAgree(t, "resume-after-false-truncation", reference(t, task), got)
	if st.ResumedLevel != -1 {
		t.Errorf("falsely truncated checkpoint resumed at level %d, want a fresh start", st.ResumedLevel)
	}
	if ckStats := cks.Stats(); ckStats.Corrupt != 1 {
		t.Errorf("store stats %+v, want exactly 1 corrupt", ckStats)
	}
}

// TestLostShardDiagnosticNamesCheckpoint pins the R=1 abort diagnostic
// (satellite of the recovery work): it must name the shard, the level, and
// the last good checkpoint — pointing the operator at the resume path —
// while keeping the historical "lost" language older tooling greps for.
func TestLostShardDiagnosticNamesCheckpoint(t *testing.T) {
	task := recoveryTask()
	task.Replicas = 1
	dir := t.TempDir()
	task.Checkpoints = openCheckpoints(t, dir)
	workers := []string{"d0", "d1", "d2"}
	ft := NewFaultyTransport(NewLoopback(), FaultPlan{KillAddr: workers[1], KillLevel: 3})
	addrs, _ := startWorkers(t, ft, workers)
	cl := dialCluster(t, ft, addrs, failoverOptions())
	_, _, err := cl.Explore(task, nil)
	if err == nil {
		t.Fatal("R=1 exploration succeeded despite a killed worker")
	}
	for _, want := range []string{"shard", "no live replica left", "at level", "last-good checkpoint: level 2 in " + dir, "lost"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("diagnostic missing %q: %v", want, err)
		}
	}
	if !strings.Contains(err.Error(), "rerun with Resume (flpcluster -resume)") {
		t.Errorf("diagnostic does not give the operator's next command: %v", err)
	}

	// The checkpoint the diagnostic points at is real: a resume from it on
	// a fresh cluster finishes the run byte-identically.
	got, st := resumeRun(t, task, task.Checkpoints)
	mustAgree(t, "resume-after-worker-loss", reference(t, task), got)
	if st.ResumedLevel < 0 {
		t.Error("resume did not restore the checkpoint the diagnostic named")
	}
}

// TestCkWriterFences pins the write-behind's contract: a flush writes the
// newest boundary enqueued before it and nothing older after it, a discard
// drops what is pending, and close writes what is left.
func TestCkWriterFences(t *testing.T) {
	var wrote []int
	w := newCkWriter()
	save := func(i int) func() { return func() { wrote = append(wrote, i) } }
	for i := 1; i <= 3; i++ {
		w.enqueue(save(i))
	}
	w.flush()
	if len(wrote) == 0 || wrote[len(wrote)-1] != 3 {
		t.Fatalf("after a flush the writes are %v, want the newest boundary, 3, last", wrote)
	}
	w.enqueue(save(4))
	w.discard()
	w.enqueue(save(5))
	w.close()
	if got := wrote[len(wrote)-2:]; got[0] != 3 || got[1] != 5 {
		t.Fatalf("writes %v: a discarded boundary was written, or close lost the pending one", wrote)
	}
}
