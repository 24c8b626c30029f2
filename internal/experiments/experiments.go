// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI and §VII). Each experiment returns a Table with the
// same rows/series the paper reports, plus rendered graph artifacts for
// the workflow figures. Overhead experiments (Figure 9, 10) measure the
// real tracer against in-memory drivers, Figures 9a-c and 10 by
// replaying the recorded stream through each component alone;
// performance experiments (Figures 11-13) replay traced operation
// streams on the simulated Table III machines, so shapes (who wins, by
// what factor) are reproduced rather than the authors' absolute testbed
// numbers.
package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Table is one experiment's regenerated output.
type Table struct {
	// ID matches the paper artifact, e.g. "fig9a", "table3".
	ID string
	// Title describes the experiment.
	Title string
	// Header names the columns.
	Header []string
	// Rows are the data rows, formatted as strings.
	Rows [][]string
	// Notes records observations the paper calls out (and whether this
	// run reproduced them).
	Notes []string
	// Artifacts maps file names to rendered content (DOT/SVG/HTML/JSON)
	// for graph figures.
	Artifacts map[string]string
}

// AddRow appends a data row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends an observation note.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// AddArtifact registers a rendered artifact.
func (t *Table) AddArtifact(name, content string) {
	if t.Artifacts == nil {
		t.Artifacts = map[string]string{}
	}
	t.Artifacts[name] = content
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(c)
			}
			b.WriteString(c)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", pad+2))
			}
		}
		b.WriteByte('\n')
	}
	if len(t.Header) > 0 {
		writeRow(t.Header)
		total := 0
		for _, w := range widths {
			total += w + 2
		}
		b.WriteString(strings.Repeat("-", total))
		b.WriteByte('\n')
	}
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	if len(t.Artifacts) > 0 {
		names := make([]string, 0, len(t.Artifacts))
		for n := range t.Artifacts {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "artifacts: %s\n", strings.Join(names, ", "))
	}
	return b.String()
}

// WriteArtifacts saves the table's artifacts under dir, returning the
// written paths.
func (t *Table) WriteArtifacts(dir string) ([]string, error) {
	if len(t.Artifacts) == 0 {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	names := make([]string, 0, len(t.Artifacts))
	for n := range t.Artifacts {
		names = append(names, n)
	}
	sort.Strings(names)
	var paths []string
	for _, n := range names {
		p := filepath.Join(dir, n)
		if err := os.WriteFile(p, []byte(t.Artifacts[n]), 0o644); err != nil {
			return nil, fmt.Errorf("experiments: write %s: %w", p, err)
		}
		paths = append(paths, p)
	}
	return paths, nil
}

// Options tunes experiment scale.
type Options struct {
	// Quick shrinks workloads for fast CI runs; the full configuration
	// matches EXPERIMENTS.md.
	Quick bool
	// Reps is the repetition count for the overhead figures (9a–c,
	// 10): each tracer component is the median of Reps replays, the
	// untraced run the minimum of Reps runs; default 3.
	Reps int
}

func (o Options) withDefaults() Options {
	if o.Reps == 0 {
		o.Reps = 3
	}
	return o
}

// Runner is an experiment entry point.
type Runner func(Options) (*Table, error)

// Registry maps experiment IDs to runners, in paper order.
func Registry() []struct {
	ID  string
	Run Runner
} {
	return []struct {
		ID  string
		Run Runner
	}{
		{"table1", Table1},
		{"table2", Table2},
		{"table3", Table3},
		{"fig3", Fig3},
		{"fig4", Fig4},
		{"fig5", Fig5},
		{"fig6", Fig6},
		{"fig7", Fig7},
		{"fig8", Fig8},
		{"fig9a", Fig9a},
		{"fig9b", Fig9b},
		{"fig9c", Fig9c},
		{"fig9d", Fig9d},
		{"fig10a", Fig10a},
		{"fig10b", Fig10b},
		{"fig11", Fig11},
		{"fig12", Fig12},
		{"fig13a", Fig13a},
		{"fig13b", Fig13b},
		{"fig13c", Fig13c},
		{"resilience", Resilience},
	}
}

// Lookup finds a runner by ID.
func Lookup(id string) (Runner, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e.Run, true
		}
	}
	return nil, false
}

func fmtSpeedup(base, opt float64) string {
	if opt <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2fx", base/opt)
}
