package main

// fixtures are the protocols of the 20 committed testdata/protogen
// fixtures, with each fixture's pinned exploration budget. A generated
// protocol lives entirely in its name, so the benchmark carries the names
// and reads no file outside its own directory.
var fixtures = []struct {
	id, name string
	budget   int
	// truncated fixtures are larger than their budget: like the unbounded
	// registry protocols they get the budgeted steps only.
	truncated bool
}{
	{"benor-004", "gen:d1:10:tbenor.n2.p1.r1.a1.dn0.ms0.ds0.mr1", 400, false},
	{"benor-006", "gen:d1:12:tbenor.n2.p1.r1.a1.dn0.ms0.ds0.mr2", 400, false},
	{"benor-011", "gen:d1:28:tbenor.n2.p1.r1.a1.dn0.ms0.ds0.mr1", 400, false},
	{"benor-013", "gen:d1:30:tbenor.n2.p1.r1.a1.dn0.ms0.ds0.mr2", 150, true},
	{"benor-018", "gen:d1:43:tbenor.n2.p1.r1.a1.dn0.ms0.ds0.mr1", 400, false},
	{"table-000", "gen:d1:2:ttable.n3.p3.r2.a2.dn65.ms2.ds0.mr2", 400, false},
	{"table-001", "gen:j1:eyJ2IjoxLCJ0bXBsIjoidGFibGUiLCJuIjoyLCJwaGFzZXMiOjIsInJlZ3MiOjIsImFscGhhYmV0IjoxLCJ0YWJsZSI6W3sibiI6MSwiciI6MCwibSI6W3sidCI6LTQsInMiOjB9XX0seyJuIjowLCJyIjowfSx7Im4iOjAsInIiOjF9LHsibiI6MCwiciI6MX0seyJuIjoxLCJyIjoxfSx7Im4iOjEsInIiOjB9LHsibiI6MSwiciI6MX0seyJuIjoyLCJyIjowLCJtIjpbeyJ0IjoxLCJzIjowfV19XX0", 400, false},
	{"table-002", "gen:d1:5:ttable.n4.p2.r2.a2.dn40.ms1.ds0.mr1", 400, false},
	{"table-003", "gen:j1:eyJ2IjoxLCJ0bXBsIjoidGFibGUiLCJuIjoyLCJwaGFzZXMiOjIsInJlZ3MiOjEsImFscGhhYmV0IjoxLCJ0YWJsZSI6W3sibiI6MSwiciI6MCwibSI6W3sidCI6LTEsInMiOjB9XX0seyJuIjowLCJyIjowfSx7Im4iOjIsInIiOjB9LHsibiI6MSwiciI6MH1dfQ", 400, false},
	{"table-005", "gen:j1:eyJ2IjoxLCJ0bXBsIjoidGFibGUiLCJuIjoyLCJwaGFzZXMiOjIsInJlZ3MiOjEsImFscGhhYmV0IjoxLCJ0YWJsZSI6W3sibiI6MSwiciI6MCwibSI6W3sidCI6LTIsInMiOjB9LHsidCI6LTMsInMiOjB9XX0seyJuIjowLCJyIjowfSx7Im4iOjEsInIiOjB9LHsibiI6MiwiciI6MCwibSI6W3sidCI6LTIsInMiOjB9XX1dfQ", 400, false},
	{"table-007", "gen:j1:eyJ2IjoxLCJ0bXBsIjoidGFibGUiLCJuIjoyLCJwaGFzZXMiOjEsInJlZ3MiOjEsImFscGhhYmV0IjoxLCJ0YWJsZSI6W3sibiI6MSwiciI6MCwibSI6W3sidCI6LTEsInMiOjB9LHsidCI6MCwicyI6MH1dfSx7Im4iOjAsInIiOjB9XX0", 400, false},
	{"table-008", "gen:d1:20:ttable.n2.p3.r2.a2.dn90.ms2.ds0.mr1", 150, true},
	{"table-009", "gen:j1:eyJ2IjoxLCJ0bXBsIjoidGFibGUiLCJuIjozLCJwaGFzZXMiOjEsInJlZ3MiOjEsImFscGhhYmV0IjoxLCJ0YWJsZSI6W3sibiI6MSwiciI6MCwibSI6W3sidCI6MiwicyI6MH1dfSx7Im4iOjEsInIiOjAsIm0iOlt7InQiOi0xLCJzIjowfV19XX0", 400, false},
	{"table-010", "gen:d1:27:ttable.n3.p4.r1.a1.dn75.ms3.ds2.mr1", 150, true},
	{"table-012", "gen:d1:29:ttable.n3.p2.r3.a3.dn55.ms2.ds3.mr1", 150, true},
	{"table-014", "gen:d1:33:ttable.n3.p3.r2.a2.dn65.ms2.ds0.mr2", 400, false},
	{"table-015", "gen:j1:eyJ2IjoxLCJ0bXBsIjoidGFibGUiLCJuIjoyLCJwaGFzZXMiOjEsInJlZ3MiOjEsImFscGhhYmV0IjoxLCJ0YWJsZSI6W3sibiI6MSwiciI6MCwibSI6W3sidCI6LTEsInMiOjB9LHsidCI6LTIsInMiOjB9XX0seyJuIjowLCJyIjowfV19", 400, false},
	{"table-016", "gen:d1:41:ttable.n4.p2.r2.a2.dn40.ms1.ds0.mr1", 150, true},
	{"table-017", "gen:j1:eyJ2IjoxLCJ0bXBsIjoidGFibGUiLCJuIjoyLCJwaGFzZXMiOjIsInJlZ3MiOjEsImFscGhhYmV0IjoxLCJ0YWJsZSI6W3sibiI6MSwiciI6MCwibSI6W3sidCI6LTIsInMiOjB9LHsidCI6MSwicyI6MH1dfSx7Im4iOjAsInIiOjB9LHsibiI6MSwiciI6MH0seyJuIjoyLCJyIjowLCJtIjpbeyJ0IjowLCJzIjowfV19XX0", 400, false},
	{"table-019", "gen:j1:eyJ2IjoxLCJ0bXBsIjoidGFibGUiLCJuIjoyLCJwaGFzZXMiOjIsInJlZ3MiOjIsImFscGhhYmV0IjoxLCJ0YWJsZSI6W3sibiI6MSwiciI6MCwibSI6W3sidCI6LTIsInMiOjB9XX0seyJuIjoxLCJyIjoxLCJtIjpbeyJ0IjotMSwicyI6MH1dfSx7Im4iOjAsInIiOjF9LHsibiI6MCwiciI6MX0seyJuIjoyLCJyIjowfSx7Im4iOjEsInIiOjB9LHsibiI6MiwiciI6MH0seyJuIjoxLCJyIjoxfV19", 400, false},
}
