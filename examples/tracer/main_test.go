package main

import (
	"os"
	"strings"
	"testing"
)

// TestTracerSmoke pins the whole output: every stage span and every III-D
// decomposition of the four placements.
func TestTracerSmoke(t *testing.T) {
	var b strings.Builder
	if err := run(&b); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/output.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("output differs from testdata/output.txt:\n got:\n%s\nwant:\n%s", got, want)
	}
}
