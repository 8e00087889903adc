package experiments_test

import (
	"strconv"
	"strings"
	"testing"

	"github.com/flpsim/flp/internal/experiments"
)

func cellInt(t *testing.T, tab *experiments.Table, row int, col string) int {
	t.Helper()
	s, ok := tab.Cell(row, col)
	if !ok {
		t.Fatalf("%s: no cell (%d, %q)", tab.ID, row, col)
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		t.Fatalf("%s: cell (%d, %q) = %q is not an integer", tab.ID, row, col, s)
	}
	return n
}

func cellBool(t *testing.T, tab *experiments.Table, row int, col string) bool {
	t.Helper()
	s, ok := tab.Cell(row, col)
	if !ok {
		t.Fatalf("%s: no cell (%d, %q)", tab.ID, row, col)
	}
	return s == "true"
}

func TestE1NoViolations(t *testing.T) {
	tab, err := experiments.E1Commutativity(60, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 4 {
		t.Fatalf("E1 covers %d protocols", len(tab.Rows))
	}
	for i := range tab.Rows {
		if v := cellInt(t, tab, i, "violations"); v != 0 {
			t.Errorf("row %d: %d Lemma 1 violations", i, v)
		}
	}
}

func TestE2Shape(t *testing.T) {
	tab, err := experiments.E2InitialValency()
	if err != nil {
		t.Fatal(err)
	}
	byName := func(name string) int {
		for i, row := range tab.Rows {
			if strings.HasPrefix(row[0], name) {
				return i
			}
		}
		t.Fatalf("no row for %s", name)
		return -1
	}
	// Trivial0 and WaitAll and 2PC: zero bivalent.
	for _, name := range []string{"trivial0", "waitall", "2pc"} {
		if n := cellInt(t, tab, byName(name), "bivalent"); n != 0 {
			t.Errorf("%s: %d bivalent initial configurations, want 0", name, n)
		}
	}
	// NaiveMajority: exactly 3; Paxos: 6 (all mixed-input vectors).
	if n := cellInt(t, tab, byName("naivemajority"), "bivalent"); n != 3 {
		t.Errorf("naivemajority: %d bivalent, want 3", n)
	}
	if n := cellInt(t, tab, byName("paxos"), "bivalent"); n != 6 {
		t.Errorf("paxos: %d bivalent, want 6", n)
	}
}

func TestE3AllFrontiersBivalent(t *testing.T) {
	tab, err := experiments.E3BivalencePreservation()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 6 {
		t.Fatalf("E3 has only %d rows", len(tab.Rows))
	}
	for i := range tab.Rows {
		if !cellBool(t, tab, i, "bivalent in D") {
			t.Errorf("row %d: frontier without bivalent configuration — Lemma 3 falsified", i)
		}
		if !cellBool(t, tab, i, "frontier exhausted") {
			t.Errorf("row %d: frontier not exhausted on the finite fixture", i)
		}
	}
}

func TestE4AdversaryVsFair(t *testing.T) {
	tab, err := experiments.E4AdversarialRun(5, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Adversary rows (Paxos and fixed-tape Ben-Or) decide nothing; fair
	// rows decide everything.
	for i, row := range tab.Rows {
		runs := cellInt(t, tab, i, "runs")
		d := cellInt(t, tab, i, "decided runs")
		if strings.Contains(row[0], "adversary") {
			if d != 0 {
				t.Errorf("row %d (%s): adversary decided %d runs, want 0", i, row[0], d)
			}
		} else if d != runs {
			t.Errorf("row %d (%s): fair scheduler decided %d/%d", i, row[0], d, runs)
		}
	}
}

func TestE5MajorityThreshold(t *testing.T) {
	tab, err := experiments.E5InitiallyDead(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Rows {
		runs := cellInt(t, tab, i, "runs")
		decided := cellInt(t, tab, i, "all live decided")
		if cellBool(t, tab, i, "majority alive") {
			if decided != runs {
				t.Errorf("row %d: majority alive but only %d/%d decided", i, decided, runs)
			}
		} else if decided != 0 {
			t.Errorf("row %d: majority dead but %d runs decided", i, decided)
		}
		if v := cellInt(t, tab, i, "agreement violations"); v != 0 {
			t.Errorf("row %d: %d agreement violations", i, v)
		}
	}
}

func TestE6Window(t *testing.T) {
	tab, err := experiments.E6CommitWindow(6)
	if err != nil {
		t.Fatal(err)
	}
	// Healthy rows (2PC and 3PC) commit everything; every delayed or
	// crashed row blocks everything.
	for i, row := range tab.Rows {
		if strings.Contains(row[0], "healthy") {
			if d := cellInt(t, tab, i, "committed"); d != 6 {
				t.Errorf("row %d (%s): committed %d/6", i, row[0], d)
			}
		} else {
			if b := cellInt(t, tab, i, "blocked"); b != 6 {
				t.Errorf("row %d (%s): blocked %d/6, want all", i, row[0], b)
			}
		}
	}
}

func TestE7NoViolations(t *testing.T) {
	tab, err := experiments.E7FloodSet(60, 3)
	if err != nil {
		t.Fatal(err)
	}
	exhaustive := 0
	for i := range tab.Rows {
		if v := cellInt(t, tab, i, "agreement violations"); v != 0 {
			t.Errorf("row %d: %d agreement violations", i, v)
		}
		if v := cellInt(t, tab, i, "validity violations"); v != 0 {
			t.Errorf("row %d: %d validity violations", i, v)
		}
		// Rounds are always f+1.
		if cellInt(t, tab, i, "rounds") != cellInt(t, tab, i, "f")+1 {
			t.Errorf("row %d: rounds ≠ f+1", i)
		}
		if cellInt(t, tab, i, "checked") == 0 {
			t.Errorf("row %d: nothing checked", i)
		}
		if mode, _ := tab.Cell(i, "mode"); mode == "exhaustive" {
			exhaustive++
		}
	}
	if exhaustive == 0 {
		t.Error("no exhaustive row")
	}
	// The tightness note must report the truncated disagreement.
	foundNote := false
	for _, n := range tab.Notes {
		if strings.Contains(n, "agreement=false") {
			foundNote = true
		}
	}
	if !foundNote {
		t.Error("tightness ablation note missing the disagreement")
	}
}

func TestE8InteractiveConsistency(t *testing.T) {
	tab, err := experiments.E8ByzantineOM()
	if err != nil {
		t.Fatal(err)
	}
	sawImpossibility := false
	var costs []int
	for i, row := range tab.Rows {
		n := cellInt(t, tab, i, "N")
		m := cellInt(t, tab, i, "m")
		ic1 := cellBool(t, tab, i, "IC1")
		ic2 := cellBool(t, tab, i, "IC2")
		if n > 3*m && (!ic1 || !ic2) {
			t.Errorf("row %d (%v): IC violated despite N > 3m", i, row)
		}
		if n == 3 && m == 1 && !ic2 {
			sawImpossibility = true
		}
		if strings.Contains(row[2], "cost sweep") {
			costs = append(costs, cellInt(t, tab, i, "messages"))
		}
	}
	if !sawImpossibility {
		t.Error("three-generals impossibility row missing or not failing IC2")
	}
	for i := 1; i < len(costs); i++ {
		if costs[i] <= costs[i-1] {
			t.Errorf("message cost not growing: %v", costs)
		}
	}
}

func TestE9AllTerminate(t *testing.T) {
	tab, err := experiments.E9BenOr(5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Rows {
		runs := cellInt(t, tab, i, "runs")
		if d := cellInt(t, tab, i, "terminated"); d != runs {
			t.Errorf("row %d: %d/%d terminated", i, d, runs)
		}
		if v := cellInt(t, tab, i, "agreement violations"); v != 0 {
			t.Errorf("row %d: %d violations", i, v)
		}
	}
}

func TestE10GSTGate(t *testing.T) {
	tab, err := experiments.E10PartialSynchrony(8)
	if err != nil {
		t.Fatal(err)
	}
	exhaustive := 0
	for i := range tab.Rows {
		if drop, _ := tab.Cell(i, "pre-GST drop"); drop == "1" {
			if b := cellInt(t, tab, i, "decided before GST"); b != 0 {
				t.Errorf("row %d: %d runs decided before GST under hostile adversary", i, b)
			}
		}
		if mode, _ := tab.Cell(i, "mode"); mode == "exhaustive" {
			exhaustive++
		}
		checked := cellInt(t, tab, i, "checked")
		if d := cellInt(t, tab, i, "all decided"); d != checked {
			t.Errorf("row %d: %d/%d decided after GST", i, d, checked)
		}
		gst := cellInt(t, tab, i, "GST")
		n := cellInt(t, tab, i, "N")
		if w := cellInt(t, tab, i, "worst decision round"); w >= gst+n {
			t.Errorf("row %d: worst decision round %d ≥ GST+N = %d", i, w, gst+n)
		}
		if v := cellInt(t, tab, i, "agreement violations"); v != 0 {
			t.Errorf("row %d: %d agreement violations", i, v)
		}
	}
	if exhaustive == 0 {
		t.Error("no exhaustive row")
	}
}

func TestE11Trilemma(t *testing.T) {
	tab, err := experiments.E11Agreement()
	if err != nil {
		t.Fatal(err)
	}
	expect := map[string][2]bool{ // agreement, nontrivial
		"trivial0":      {true, false},
		"waitall":       {true, true},
		"naivemajority": {false, true},
		"2pc":           {true, true},
		"paxos":         {true, true},
	}
	for i, row := range tab.Rows {
		for name, want := range expect {
			if strings.HasPrefix(row[0], name) {
				if cellBool(t, tab, i, "agreement") != want[0] {
					t.Errorf("%s: agreement = %v, want %v", name, !want[0], want[0])
				}
				if cellBool(t, tab, i, "nontrivial") != want[1] {
					t.Errorf("%s: nontrivial = %v, want %v", name, !want[1], want[1])
				}
			}
		}
	}
}

func TestE12DetectorProperties(t *testing.T) {
	tab, err := experiments.E12FailureDetector(4)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range tab.Rows {
		runs := cellInt(t, tab, i, "runs")
		decided := cellInt(t, tab, i, "all decided")
		switch {
		case strings.Contains(row[0], "paranoid"), strings.Contains(row[0], "blind"):
			if decided != 0 {
				t.Errorf("%s decided %d runs, want 0", row[0], decided)
			}
		default:
			if decided != runs {
				t.Errorf("%s decided %d/%d runs", row[0], decided, runs)
			}
		}
		if v := cellInt(t, tab, i, "agreement violations"); v != 0 {
			t.Errorf("%s: %d agreement violations", row[0], v)
		}
	}
}

func TestE13ProbeAblation(t *testing.T) {
	tab, err := experiments.E13StateSpace()
	if err != nil {
		t.Fatal(err)
	}
	sawPaxos := false
	for i, row := range tab.Rows {
		probe := cellBool(t, tab, i, "bivalence via probe")
		bfs := cellBool(t, tab, i, "bivalence via BFS")
		exhaustive := cellBool(t, tab, i, "exhaustive")
		if exhaustive && probe != bfs {
			t.Errorf("%s: probe (%v) and exhaustive BFS (%v) disagree", row[0], probe, bfs)
		}
		if strings.HasPrefix(row[0], "paxos") {
			sawPaxos = true
			if !probe {
				t.Error("probe failed to certify Paxos bivalence")
			}
			if bfs {
				t.Error("budgeted BFS unexpectedly certified Paxos bivalence; the ablation premise changed")
			}
		}
	}
	if !sawPaxos {
		t.Error("no paxos row in E13")
	}
}

func TestE14Convergence(t *testing.T) {
	tab, err := experiments.E14ApproximateAgreement(6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Rows {
		runs := cellInt(t, tab, i, "runs")
		if w := cellInt(t, tab, i, "within ε"); w != runs {
			t.Errorf("row %d: %d/%d within ε", i, w, runs)
		}
		if v := cellInt(t, tab, i, "validity violations"); v != 0 {
			t.Errorf("row %d: %d validity violations", i, v)
		}
		if worst := cellInt(t, tab, i, "worst final spread"); worst > cellInt(t, tab, i, "ε") {
			t.Errorf("row %d: worst spread %d exceeds ε", i, worst)
		}
	}
}

func TestE15Linearizable(t *testing.T) {
	tab, err := experiments.E15AtomicRegister(6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Rows {
		histories := cellInt(t, tab, i, "histories")
		if c := cellInt(t, tab, i, "complete"); c != histories {
			t.Errorf("row %d: %d/%d histories complete", i, c, histories)
		}
		if l := cellInt(t, tab, i, "linearizable"); l != histories {
			t.Errorf("row %d: %d/%d histories linearizable", i, l, histories)
		}
	}
}

func TestE16BroadcastProperties(t *testing.T) {
	tab, err := experiments.E16ReliableBroadcast(8)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range tab.Rows {
		runs := cellInt(t, tab, i, "runs")
		all := cellInt(t, tab, i, "all correct delivered")
		none := cellInt(t, tab, i, "none delivered")
		if all+none != runs {
			t.Errorf("row %d (%s): totality violated: %d all + %d none != %d runs", i, row[2], all, none, runs)
		}
		if v := cellInt(t, tab, i, "agreement violations"); v != 0 {
			t.Errorf("row %d (%s): %d agreement violations", i, row[2], v)
		}
		if v := cellInt(t, tab, i, "validity violations"); v != 0 {
			t.Errorf("row %d (%s): %d validity violations", i, row[2], v)
		}
		if strings.Contains(row[2], "silent sender") && all != 0 {
			t.Errorf("row %d: deliveries from a silent sender", i)
		}
		if !strings.Contains(row[2], "sender") && all != runs {
			// Honest-sender rows must always deliver everywhere.
			t.Errorf("row %d (%s): only %d/%d runs delivered everywhere", i, row[2], all, runs)
		}
	}
}

func TestE17Reduction(t *testing.T) {
	tab, err := experiments.E17Multivalued(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Rows {
		runs := cellInt(t, tab, i, "runs")
		if d := cellInt(t, tab, i, "all decided"); d != runs {
			t.Errorf("row %d: %d/%d decided", i, d, runs)
		}
		if v := cellInt(t, tab, i, "agreement violations"); v != 0 {
			t.Errorf("row %d: %d agreement violations", i, v)
		}
		if v := cellInt(t, tab, i, "validity violations"); v != 0 {
			t.Errorf("row %d: %d validity violations", i, v)
		}
	}
}

func TestE18ElectionShape(t *testing.T) {
	tab, err := experiments.E18Election(0)
	if err != nil {
		t.Fatal(err)
	}
	hungRows := 0
	for i := range tab.Rows {
		timeout := cellInt(t, tab, i, "timeout")
		hung := cellBool(t, tab, i, "hung")
		unique := cellBool(t, tab, i, "unique leader")
		crashed := cellInt(t, tab, i, "crashed")
		if timeout > 0 && (!unique || hung) {
			t.Errorf("row %d: sound timeouts failed to elect", i)
		}
		if timeout == 0 && crashed > 0 && !hung {
			t.Errorf("row %d: async election over dead superiors did not hang", i)
		}
		if hung {
			hungRows++
		}
	}
	if hungRows == 0 {
		t.Error("no hung row; the async contrast is missing")
	}
}

func TestSuiteAndRunByID(t *testing.T) {
	s := experiments.DefaultSizes()
	suite := experiments.Suite(s)
	if len(suite) != 18 {
		t.Fatalf("suite has %d experiments, want 18", len(suite))
	}
	ids := map[string]bool{}
	for _, r := range suite {
		ids[r.ID] = true
	}
	for _, id := range []string{"E1", "E5", "E11"} {
		if !ids[id] {
			t.Errorf("suite missing %s", id)
		}
	}
	// The suite is the paper's experiments and ends at E18.
	for _, id := range []string{"E19", "E99"} {
		if _, err := experiments.RunByID(id, s); err == nil {
			t.Errorf("unknown experiment id %s accepted", id)
		}
	}
	// Run one small experiment through the dispatcher.
	tab, err := experiments.RunByID("E8", s)
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "E8" {
		t.Errorf("RunByID returned table %s", tab.ID)
	}
}

func TestTableHelpers(t *testing.T) {
	tab := &experiments.Table{ID: "T", Title: "test", Columns: []string{"a", "b"}}
	tab.AddRow(1, "x")
	tab.AddNote("note %d", 7)
	if s, ok := tab.Cell(0, "a"); !ok || s != "1" {
		t.Errorf("Cell = %q, %v", s, ok)
	}
	if _, ok := tab.Cell(0, "missing"); ok {
		t.Error("missing column found")
	}
	if _, ok := tab.Cell(5, "a"); ok {
		t.Error("out-of-range row found")
	}
	out := tab.String()
	if !strings.Contains(out, "T — test") || !strings.Contains(out, "note 7") {
		t.Errorf("rendered table missing pieces:\n%s", out)
	}
}
