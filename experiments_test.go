package memsys_test

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestExperimentsTable3MatchesGolden keeps EXPERIMENTS.md's Table 3
// honest: every "ours" cell must equal the default-scale campaign's
// golden output (paperbench_default.txt) rounded to the doc's
// precision — two decimals for the L1D miss rate, integers for
// instructions per L1 miss and off-chip bandwidth.
func TestExperimentsTable3MatchesGolden(t *testing.T) {
	golden := goldenTable3(t)
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## Table 3")
	if !ok {
		t.Fatal("EXPERIMENTS.md has no Table 3 section")
	}
	rows := 0
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(strings.Trim(line, "| "), "|")
		if len(cells) != 4 || !strings.Contains(line, " / ") || strings.TrimSpace(cells[0]) == "app" {
			if rows > 0 {
				break // the first line after the table ends it
			}
			continue
		}
		app := strings.TrimSpace(cells[0])
		want, ok := golden[app]
		if !ok {
			t.Errorf("EXPERIMENTS.md Table 3 row %q has no golden row", app)
			continue
		}
		rows++
		for i, format := range []string{"%.2f", "%.0f", "%.0f"} {
			_, ours, _ := strings.Cut(cells[i+1], "/")
			if got, exp := strings.TrimSpace(ours), fmt.Sprintf(format, want[i]); got != exp {
				t.Errorf("%s column %d: EXPERIMENTS.md says %s, golden output gives %s", app, i+1, got, exp)
			}
		}
	}
	if rows != len(golden) {
		t.Fatalf("EXPERIMENTS.md Table 3 has %d rows, golden output %d", rows, len(golden))
	}
}

// goldenTable3 parses paperbench_default.txt's Table 3 into, per app,
// the L1D miss %, instructions per L1 miss and off-chip MB/s.
func goldenTable3(t *testing.T) map[string][3]float64 {
	t.Helper()
	raw, err := os.ReadFile("paperbench_default.txt")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "\nTable 3:")
	if !ok {
		t.Fatal("paperbench_default.txt has no Table 3")
	}
	table, _, _ := strings.Cut(section, "\n\n")
	rows := map[string][3]float64{}
	for _, line := range strings.Split(table, "\n")[2:] { // title tail, column header
		f := strings.Fields(line)
		if len(f) != 6 {
			t.Fatalf("golden Table 3 row %q", line)
		}
		var row [3]float64
		for i, col := range []int{1, 3, 5} {
			if row[i], err = strconv.ParseFloat(f[col], 64); err != nil {
				t.Fatalf("golden Table 3 row %q: %v", line, err)
			}
		}
		rows[f[0]] = row
	}
	return rows
}
