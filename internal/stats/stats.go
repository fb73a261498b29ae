// Package stats collects and formats the series and tables the benchmark
// harness emits, in the shapes the paper's figures and tables use.
package stats

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Point is one (x, y) sample of a figure series.
type Point struct {
	X float64
	Y float64
}

// Series is one labeled curve of a figure.
type Series struct {
	Label  string
	Points []Point
}

// Add appends a sample. Adding a second point with an exact-bit-equal x
// shadows the first: YAt and the rendered figure report the last write.
func (s *Series) Add(x, y float64) {
	s.Points = append(s.Points, Point{X: x, Y: y})
}

// YAt returns the y value at the given x, and whether it exists. The x must
// match bit-for-bit: two drivers computing the "same" x through different
// float rounding produce distinct columns, never a silent blank cell.
func (s *Series) YAt(x float64) (float64, bool) {
	bits := math.Float64bits(x)
	for i := len(s.Points) - 1; i >= 0; i-- {
		if math.Float64bits(s.Points[i].X) == bits {
			return s.Points[i].Y, true
		}
	}
	return 0, false
}

// MaxY returns the largest y value (0 for an empty series).
func (s *Series) MaxY() float64 {
	best := 0.0
	for i, p := range s.Points {
		if i == 0 || p.Y > best {
			best = p.Y
		}
	}
	return best
}

// Figure is a set of series sharing an x axis.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []*Series
}

// NewFigure creates an empty figure.
func NewFigure(title, xlabel, ylabel string) *Figure {
	return &Figure{Title: title, XLabel: xlabel, YLabel: ylabel}
}

// Line returns the series with the given label, creating it on first use.
func (f *Figure) Line(label string) *Series {
	for _, s := range f.Series {
		if s.Label == label {
			return s
		}
	}
	s := &Series{Label: label}
	f.Series = append(f.Series, s)
	return s
}

// Render prints the figure as an aligned text table: one row per x value,
// one column per series. This is the harness's "regenerate the figure"
// output format.
func (f *Figure) Render(w io.Writer) {
	fmt.Fprintf(w, "# %s\n", f.Title)
	fmt.Fprintf(w, "# y: %s\n", f.YLabel)

	xsSeen := map[float64]bool{}
	var xs []float64
	for _, s := range f.Series {
		for _, p := range s.Points {
			if !xsSeen[p.X] {
				xsSeen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	sort.Float64s(xs)

	header := []string{f.XLabel}
	for _, s := range f.Series {
		header = append(header, s.Label)
	}
	rows := [][]string{header}
	for _, x := range xs {
		row := []string{formatNum(x)}
		for _, s := range f.Series {
			if y, ok := s.YAt(x); ok {
				row = append(row, fmt.Sprintf("%.3f", y))
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}
	renderRows(w, rows)
}

// Table is a free-form text table (for the paper's Tables II/III).
type Table struct {
	Title string
	rows  [][]string
}

// NewTable creates an empty table.
func NewTable(title string) *Table { return &Table{Title: title} }

// Row appends one row of cells.
func (t *Table) Row(cells ...string) { t.rows = append(t.rows, cells) }

// Render prints the table with aligned columns.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "# %s\n", t.Title)
	renderRows(w, t.rows)
}

func renderRows(w io.Writer, rows [][]string) {
	widths := map[int]int{}
	for _, row := range rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for _, row := range rows {
		var b strings.Builder
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
}

func formatNum(x float64) string {
	if x == float64(int64(x)) {
		return fmt.Sprintf("%d", int64(x))
	}
	return fmt.Sprintf("%g", x)
}
