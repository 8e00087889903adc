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
	last := tab.Rows[len(tab.Rows)-1]
	if got, want := last[0]+" / "+last[1], "whole atlas of 011 (121 bivalent C) / every e: 669 of 669 hold"; got != want {
		t.Errorf("E3 whole-atlas row %q, want %q", got, want)
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

func TestSuiteAndRunByID(t *testing.T) {
	var ids []string
	for _, r := range experiments.Suite(1, 1) {
		ids = append(ids, r.ID)
	}
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E13"}
	if strings.Join(ids, " ") != strings.Join(want, " ") {
		t.Fatalf("suite ids = %v, want %v", ids, want)
	}
	// The suite is the paper's experiments, E1–E11 and E13; the retired
	// contrasts keep their numbers and no other id is known.
	for _, id := range []string{"E12", "E14", "E15", "E16", "E17", "E18", "E19", "E99"} {
		if _, err := experiments.RunByID(id, 1, 1); err == nil {
			t.Errorf("unknown experiment id %s accepted", id)
		}
	}
	// Run one small experiment through the dispatcher.
	tab, err := experiments.RunByID("E8", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "E8" {
		t.Errorf("RunByID returned table %s", tab.ID)
	}
}

// TestSizesScaled reads each sampled experiment's count off its table at
// scale 1 and 2: scale multiplies every count, and leaves E4's stage depth
// (the adversary row's steps) where it is.
func TestSizesScaled(t *testing.T) {
	cells := []struct {
		id, col string
		row     int
		scales  bool
	}{
		{"E1", "trials", 0, true},
		{"E4", "runs", 1, true},
		{"E4", "steps (mean)", 0, false},
		{"E5", "runs", 0, true},
		{"E6", "runs", 0, true},
		{"E7", "checked", 3, true},
		{"E9", "runs", 0, true},
		{"E10", "checked", 0, true},
	}
	tabs := map[string]*experiments.Table{}
	read := func(id, col string, row, scale int) int {
		key := id + "@" + strconv.Itoa(scale)
		if tabs[key] == nil {
			tab, err := experiments.RunByID(id, scale, 1)
			if err != nil {
				t.Fatal(err)
			}
			tabs[key] = tab
		}
		s, ok := tabs[key].Cell(row, col)
		v, err := strconv.Atoi(s)
		if !ok || err != nil {
			t.Fatalf("%s row %d has no %q count: %q", id, row, col, s)
		}
		return v
	}
	for _, c := range cells {
		base, got := read(c.id, c.col, c.row, 1), read(c.id, c.col, c.row, 2)
		want := base
		if c.scales {
			want = 2 * base
		}
		if got != want {
			t.Errorf("%s %s at scale 2 = %d, want %d (scale 1: %d)", c.id, c.col, got, want, base)
		}
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
