package experiments

import (
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

// quick runs every experiment in Quick mode; individual shape tests
// below assert the paper's qualitative results.
var quick = Options{Quick: true, Reps: 1}

func TestRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range Registry() {
		if ids[e.ID] {
			t.Errorf("duplicate experiment %s", e.ID)
		}
		ids[e.ID] = true
		if e.Run == nil {
			t.Errorf("experiment %s has no runner", e.ID)
		}
	}
	for _, want := range []string{"table1", "table2", "table3", "fig3", "fig4", "fig5",
		"fig6", "fig7", "fig8", "fig9a", "fig9b", "fig9c", "fig9d",
		"fig10a", "fig10b", "fig11", "fig12", "fig13a", "fig13b", "fig13c",
		"resilience"} {
		if !ids[want] {
			t.Errorf("experiment %s missing from registry", want)
		}
	}
	if _, ok := Lookup("fig4"); !ok {
		t.Error("Lookup failed")
	}
	if _, ok := Lookup("fig99"); ok {
		t.Error("Lookup invented an experiment")
	}
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{ID: "x", Title: "demo", Header: []string{"a", "b"}}
	tab.AddRow("1", "2")
	tab.AddNote("note %d", 7)
	tab.AddArtifact("g.dot", "digraph {}")
	s := tab.Format()
	for _, want := range []string{"== x: demo ==", "a  b", "1  2", "note: note 7", "artifacts: g.dot"} {
		if !strings.Contains(s, want) {
			t.Errorf("Format missing %q in:\n%s", want, s)
		}
	}
	dir := t.TempDir()
	paths, err := tab.WriteArtifacts(dir)
	if err != nil || len(paths) != 1 {
		t.Fatalf("WriteArtifacts: %v, %v", paths, err)
	}
	empty := &Table{ID: "y"}
	if paths, err := empty.WriteArtifacts(dir); err != nil || paths != nil {
		t.Error("empty artifacts misbehaved")
	}
}

// warnings counts WARNING notes.
func warnings(tab *Table) []string {
	var out []string
	for _, n := range tab.Notes {
		if strings.Contains(n, "WARNING") {
			out = append(out, n)
		}
	}
	return out
}

func TestTables1to3(t *testing.T) {
	for _, id := range []string{"table1", "table2", "table3"} {
		run, _ := Lookup(id)
		tab, err := run(quick)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tab.Rows) == 0 {
			t.Errorf("%s has no rows", id)
		}
	}
}

func TestFig3(t *testing.T) {
	tab, err := Fig3(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(warnings(tab)) > 0 {
		t.Errorf("fig3 warnings: %v", warnings(tab))
	}
	if tab.Artifacts["fig3_sdg.dot"] == "" || tab.Artifacts["fig3_sdg.html"] == "" {
		t.Error("fig3 artifacts missing")
	}
}

func TestFig4to7GraphFigures(t *testing.T) {
	for _, id := range []string{"fig4", "fig5", "fig6", "fig7"} {
		run, _ := Lookup(id)
		tab, err := run(quick)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if w := warnings(tab); len(w) > 0 {
			t.Errorf("%s warnings: %v", id, w)
		}
		if len(tab.Artifacts) == 0 {
			t.Errorf("%s has no artifacts", id)
		}
	}
}

func TestFig8ChunkedHalvesVLWrites(t *testing.T) {
	tab, err := Fig8(quick)
	if err != nil {
		t.Fatal(err)
	}
	if w := warnings(tab); len(w) > 0 {
		t.Errorf("fig8 warnings: %v", w)
	}
	// Both SDG variants rendered.
	if tab.Artifacts["fig8a_contiguous_sdg.svg"] == "" || tab.Artifacts["fig8b_chunked_sdg.svg"] == "" {
		t.Error("fig8 SDG artifacts missing")
	}
}

func TestFig9Overheads(t *testing.T) {
	// Wall-clock experiments: only assert they run and produce finite,
	// non-negative percentages. How large they are is benchmark/'s verdict
	// (trace_overhead), not a unit test's: on a loaded host any bound
	// here is a flake.
	for _, id := range []string{"fig9a", "fig9b", "fig9c"} {
		run, _ := Lookup(id)
		tab, err := run(quick)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, row := range tab.Rows {
			for _, cell := range row[1:] {
				v, err := strconv.ParseFloat(cell, 64)
				if err != nil {
					t.Fatalf("%s: non-numeric overhead %q", id, cell)
				}
				if v < 0 || math.IsInf(v, 0) || math.IsNaN(v) {
					t.Errorf("%s: implausible overhead %v%%", id, v)
				}
			}
		}
	}
}

func TestFig9dStorageShape(t *testing.T) {
	tab, err := Fig9d(quick)
	if err != nil {
		t.Fatal(err)
	}
	if w := warnings(tab); len(w) > 0 {
		t.Errorf("fig9d warnings: %v", w)
	}
}

func TestFig10Breakdowns(t *testing.T) {
	for _, id := range []string{"fig10a", "fig10b"} {
		run, _ := Lookup(id)
		tab, err := run(quick)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tab.Rows) != 4 {
			t.Errorf("%s rows = %d", id, len(tab.Rows))
		}
		if tab.Rows[0][0] != "Input_Parser" || tab.Rows[3][0] != "Total" {
			t.Errorf("%s components wrong: %v", id, tab.Rows)
		}
	}
}

// TestFig10LeavesNoTempFiles: the config file Figs 9a-c and 10 write
// for the Input Parser is removed once it has been measured.
func TestFig10LeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	for _, run := range []Runner{Fig9a, Fig9b, Fig9c, Fig10a, Fig10b} {
		if _, err := run(quick); err != nil {
			t.Fatal(err)
		}
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("left behind in TMPDIR: %s", e.Name())
	}
}

func TestFig11PlacementSpeedup(t *testing.T) {
	tab, err := Fig11(quick)
	if err != nil {
		t.Fatal(err)
	}
	if w := warnings(tab); len(w) > 0 {
		t.Errorf("fig11 warnings: %v", w)
	}
	// Every config's overall row must show >1x speedup.
	var overall int
	for _, row := range tab.Rows {
		if row[1] == "overall (incl. staging)" {
			overall++
			sp := parseSpeedup(t, row[4])
			if sp <= 1.0 {
				t.Errorf("fig11 %s overall speedup %.2f <= 1", row[0], sp)
			}
		}
	}
	if overall != 2 {
		t.Errorf("fig11 overall rows = %d", overall)
	}
}

func TestFig12IterationSpeedup(t *testing.T) {
	tab, err := Fig12(quick)
	if err != nil {
		t.Fatal(err)
	}
	if w := warnings(tab); len(w) > 0 {
		t.Errorf("fig12 warnings: %v", w)
	}
	last := tab.Rows[len(tab.Rows)-1]
	if last[0] != "overall" {
		t.Fatalf("fig12 last row = %v", last)
	}
	if sp := parseSpeedup(t, last[3]); sp <= 1.0 {
		t.Errorf("fig12 overall speedup %.2f <= 1", sp)
	}
}

func TestFig13aConsolidationShape(t *testing.T) {
	tab, err := Fig13a(quick)
	if err != nil {
		t.Fatal(err)
	}
	if w := warnings(tab); len(w) > 0 {
		t.Errorf("fig13a warnings: %v", w)
	}
	// Consolidation always wins, benefit shrinks with process count and
	// with dataset size (paper's two trends).
	type key struct{ size, procs string }
	sp := map[key]float64{}
	for _, row := range tab.Rows {
		sp[key{row[0], row[1]}] = parseSpeedup(t, row[4])
	}
	for k, v := range sp {
		if v <= 1.0 {
			t.Errorf("consolidation lost at %v: %.2f", k, v)
		}
	}
	if sp[key{"1.0 KiB", "1"}] <= sp[key{"8.0 KiB", "1"}] {
		t.Error("speedup should shrink with dataset size")
	}
	if sp[key{"1.0 KiB", "1"}] <= sp[key{"1.0 KiB", "4"}] {
		t.Error("speedup should shrink with process count")
	}
}

func TestFig13bContiguousWins(t *testing.T) {
	tab, err := Fig13b(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if sp := parseSpeedup(t, row[4]); sp <= 1.0 {
			t.Errorf("contiguous lost at %v: %.2f", row[:2], sp)
		}
	}
	// Speedup grows with concurrency (paper: up to 1.9x).
	var sp1, sp4 float64
	for _, row := range tab.Rows {
		if row[0] == "100.0 KiB" && row[1] == "1" {
			sp1 = parseSpeedup(t, row[4])
		}
		if row[0] == "100.0 KiB" && row[1] == "4" {
			sp4 = parseSpeedup(t, row[4])
		}
	}
	if sp4 <= sp1 {
		t.Errorf("speedup should grow with concurrency: 1p=%.2f 4p=%.2f", sp1, sp4)
	}
}

func TestFig13cChunkedVLWins(t *testing.T) {
	tab, err := Fig13c(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if row[1] == "Contig (Baseline)" {
			continue
		}
		if sp := parseSpeedup(t, row[4]); sp <= 1.0 {
			t.Errorf("chunked VL lost at %v: %.2f", row[:2], sp)
		}
	}
}

func TestResilienceShape(t *testing.T) {
	tab, err := Resilience(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range tab.Notes {
		if strings.Contains(n, "DETERMINISM VIOLATION") {
			t.Errorf("resilience: %s", n)
		}
	}
	// At zero fault rate both policies succeed every run; at the top rate
	// retry must out-survive fail-fast.
	success := map[[2]string]string{}
	for _, row := range tab.Rows {
		success[[2]string{row[0], row[1]}] = row[2]
	}
	runs := strings.SplitN(success[[2]string{"0.00", "fail-fast"}], "/", 2)[1]
	all := runs + "/" + runs
	if success[[2]string{"0.00", "fail-fast"}] != all || success[[2]string{"0.00", "retry"}] != all {
		t.Errorf("clean runs failed: %v", success)
	}
	top := tab.Rows[len(tab.Rows)-1]
	if top[1] != "retry" {
		t.Fatalf("unexpected row order: %v", tab.Rows)
	}
	ff := success[[2]string{top[0], "fail-fast"}]
	if ff >= top[2] { // "0/2" < "2/2" lexically matches numerically here
		t.Errorf("retry (%s) did not out-survive fail-fast (%s) at rate %s", top[2], ff, top[0])
	}
}

func parseSpeedup(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64)
	if err != nil {
		t.Fatalf("bad speedup cell %q", s)
	}
	return v
}
