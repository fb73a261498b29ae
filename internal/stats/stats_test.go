package stats

import (
	"strings"
	"testing"
)

func TestSeriesBasics(t *testing.T) {
	s := &Series{Label: "write"}
	s.Add(1, 4.7)
	s.Add(2, 4.2)
	if y, ok := s.YAt(1); !ok || y != 4.7 {
		t.Fatalf("YAt(1)=%v,%v", y, ok)
	}
	if _, ok := s.YAt(3); ok {
		t.Fatal("YAt(3) should miss")
	}
	if s.MaxY() != 4.7 {
		t.Fatalf("MaxY=%v", s.MaxY())
	}
	empty := &Series{}
	if empty.MaxY() != 0 {
		t.Fatal("empty MaxY should be 0")
	}
}

func TestFigureLineReuse(t *testing.T) {
	f := NewFigure("t", "x", "y")
	a := f.Line("a")
	b := f.Line("a")
	if a != b {
		t.Fatal("Line must return the same series for the same label")
	}
	f.Line("c")
	if len(f.Series) != 2 {
		t.Fatalf("series=%d", len(f.Series))
	}
}

func TestFigureRender(t *testing.T) {
	f := NewFigure("Fig X", "size", "MOPS")
	f.Line("write").Add(2, 4.7)
	f.Line("write").Add(4, 4.6)
	f.Line("read").Add(2, 4.2)
	var b strings.Builder
	f.Render(&b)
	out := b.String()
	for _, want := range []string{"# Fig X", "size", "write", "read", "4.700", "4.200"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
	// The read series has no point at x=4: rendered as "-".
	if !strings.Contains(out, "-") {
		t.Error("missing placeholder for absent point")
	}
}

func TestFigureRenderSortsX(t *testing.T) {
	f := NewFigure("t", "x", "y")
	f.Line("s").Add(8, 1)
	f.Line("s").Add(2, 2)
	f.Line("s").Add(4, 3)
	var b strings.Builder
	f.Render(&b)
	out := b.String()
	i2, i4, i8 := strings.Index(out, "\n2 "), strings.Index(out, "\n4 "), strings.Index(out, "\n8 ")
	if !(i2 < i4 && i4 < i8) {
		t.Fatalf("x values not sorted:\n%s", out)
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Table II")
	tb.Row("Type", "Latency (ns)", "Bandwidth (GB/s)")
	tb.Row("local socket", "92", "3.70")
	tb.Row("remote socket", "162", "2.27")
	var b strings.Builder
	tb.Render(&b)
	out := b.String()
	if !strings.Contains(out, "# Table II") || !strings.Contains(out, "remote socket") {
		t.Fatalf("table render wrong:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("expected 4 lines, got %d", len(lines))
	}
}

func TestFormatNum(t *testing.T) {
	if formatNum(4) != "4" {
		t.Fatalf("got %q", formatNum(4))
	}
	if formatNum(0.25) != "0.25" {
		t.Fatalf("got %q", formatNum(0.25))
	}
}

func TestSeriesDuplicateXLastWriteWins(t *testing.T) {
	s := &Series{Label: "dup"}
	s.Add(2, 10)
	s.Add(2, 20)
	if y, ok := s.YAt(2); !ok || y != 20 {
		t.Fatalf("YAt(2)=%v,%v; duplicated x must surface the last write", y, ok)
	}
	// The rendered figure reports the same value — the duplicate is
	// shadowed, never a silently divergent cell.
	f := NewFigure("t", "x", "y")
	*f.Line("dup") = *s
	var b strings.Builder
	f.Render(&b)
	if !strings.Contains(b.String(), "20.000") || strings.Contains(b.String(), "10.000") {
		t.Fatalf("render shows the shadowed value:\n%s", b.String())
	}
}

func TestSeriesYAtAfterDirectAppend(t *testing.T) {
	// Points is exported; the lazy index must fold samples appended after a
	// lookup already built it.
	s := &Series{Label: "direct"}
	s.Add(1, 1)
	if _, ok := s.YAt(1); !ok {
		t.Fatal("YAt(1) missed")
	}
	s.Points = append(s.Points, Point{X: 5, Y: 55})
	if y, ok := s.YAt(5); !ok || y != 55 {
		t.Fatalf("YAt(5)=%v,%v after direct append", y, ok)
	}
	s.Points = s.Points[:1]
	if _, ok := s.YAt(5); ok {
		t.Fatal("YAt(5) must miss after truncation")
	}
}

func TestSeriesYAtBitExact(t *testing.T) {
	// Two x values that print identically but differ in their low bits are
	// distinct columns: YAt matches bit patterns, not rounded text.
	s := &Series{Label: "bits"}
	a, b := 0.1, 0.2
	x1 := a + b // 0.30000000000000004 (runtime float64 arithmetic)
	x2 := 0.3
	s.Add(x1, 1)
	if _, ok := s.YAt(x2); ok {
		t.Fatal("0.3 must not match 0.1+0.2")
	}
	if y, ok := s.YAt(x1); !ok || y != 1 {
		t.Fatalf("YAt(x1)=%v,%v", y, ok)
	}
}
