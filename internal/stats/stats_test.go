package stats

import (
	"errors"
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.Row("short", 1.5)
	tb.Row("a-much-longer-name", 10.25)
	var sb strings.Builder
	tb.WriteText(&sb)
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // title + header + 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "demo") {
		t.Error("missing title")
	}
	// Numeric column right-aligned: both rows end with the value.
	if !strings.HasSuffix(lines[2], "1.500") || !strings.HasSuffix(lines[3], "10.250") {
		t.Errorf("numeric alignment broken:\n%s", out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("", "a", "b,with comma")
	tb.Row(`quote"y`, 2)
	var sb strings.Builder
	tb.WriteCSV(&sb)
	want := "a,\"b,with comma\"\n\"quote\"\"y\",2\n"
	if sb.String() != want {
		t.Errorf("csv = %q, want %q", sb.String(), want)
	}
}

// failingWriter rejects every write, as a full disk does.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("no space left on device") }

// TestTableCSVWriteError: a failed write is returned, not dropped, so a
// CLI cannot report a CSV as written when the disk refused it.
func TestTableCSVWriteError(t *testing.T) {
	tb := NewTable("", "a", "b").Row("x", 1)
	if err := tb.WriteCSV(failingWriter{}); err == nil {
		t.Fatal("WriteCSV to a failing writer returned nil")
	}
}

func TestChartProportions(t *testing.T) {
	ch := Chart{
		Title:    "t",
		SegNames: []string{"useful", "sync"},
		Bars: []StackedBar{
			{Label: "full", Segments: []float64{1.0, 0.0}},
			{Label: "half", Segments: []float64{0.25, 0.25}},
		},
		Max:   1.0,
		Width: 40,
	}
	var sb strings.Builder
	ch.Write(&sb)
	out := sb.String()
	if strings.Count(out, "#") != 40+10+1 { // full + half + legend
		t.Errorf("glyph counts wrong (want 40 + 10 + 1 '#'):\n%s", out)
	}
	if strings.Count(out, "~") != 10+1 { // 10 in bar + 1 in legend
		t.Errorf("segment-2 glyphs wrong:\n%s", out)
	}
	if !strings.Contains(out, "useful") || !strings.Contains(out, "sync") {
		t.Error("legend missing")
	}
}

func TestChartAutoScale(t *testing.T) {
	ch := Chart{
		Bars:  []StackedBar{{Label: "x", Segments: []float64{2.0}}},
		Width: 20,
	}
	var sb strings.Builder
	ch.Write(&sb)
	if got := strings.Count(sb.String(), "#"); got != 20 {
		t.Errorf("auto-scaled bar width = %d, want 20", got)
	}
}

func TestChartZeroData(t *testing.T) {
	ch := Chart{Bars: []StackedBar{{Label: "none", Segments: []float64{0}}}}
	var sb strings.Builder
	ch.Write(&sb) // must not panic or divide by zero
	if !strings.Contains(sb.String(), "none") {
		t.Error("label missing")
	}
}

func TestTableSetPrecision(t *testing.T) {
	tb := NewTable("", "name", "coarse", "fine")
	tb.SetPrecision(1, 1).SetPrecision(2, 6)
	tb.Row("x", 1.25, 1.25)
	var sb strings.Builder
	tb.WriteCSV(&sb)
	want := "name,coarse,fine\nx,1.2,1.250000\n"
	if sb.String() != want {
		t.Errorf("csv = %q, want %q", sb.String(), want)
	}
	// Untouched columns keep the 3-decimal default.
	tb2 := NewTable("", "v").Row(0.5)
	var sb2 strings.Builder
	tb2.WriteCSV(&sb2)
	if want := "v\n0.500\n"; sb2.String() != want {
		t.Errorf("default precision csv = %q, want %q", sb2.String(), want)
	}
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7}, 0)
	if s != " .:-=+*#" {
		t.Errorf("ramp = %q", s)
	}
	if got := Sparkline(nil, 10); got != "" {
		t.Errorf("empty series = %q", got)
	}
	// Flat series renders as the lowest glyph, no divide-by-zero.
	if got := Sparkline([]float64{3, 3, 3}, 0); got != "   " {
		t.Errorf("flat = %q", got)
	}
	// Downsampling: 100 points into 10 cells, still monotone ramp.
	long := make([]float64, 100)
	for i := range long {
		long[i] = float64(i)
	}
	if got := Sparkline(long, 10); len(got) != 10 || got[0] != ' ' || got[9] != '#' {
		t.Errorf("downsampled = %q", got)
	}
}

func TestHeatmap(t *testing.T) {
	var h Heatmap
	h.Title = "hm"
	h.AddRow("a", []float64{0, 1, 2})
	h.AddRow("bb", []float64{5, 5, 5})
	var sb strings.Builder
	h.Write(&sb)
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "a ") || !strings.Contains(lines[1], "| 0..2") {
		t.Errorf("row a = %q", lines[1])
	}
	if !strings.Contains(lines[2], "|   |") { // flat row: lowest glyph
		t.Errorf("flat row b = %q", lines[2])
	}
}
