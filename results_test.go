package rdmasem_test

import (
	"os"
	"strings"
	"testing"

	"rdmasem/internal/bench"
)

// TestResultsFullCoversEveryExperiment checks, without running anything,
// that results_full.txt holds a report for every registered experiment, so
// the checked-in full-scale output cannot silently fall behind the registry.
// Regenerate it with the command in EXPERIMENTS.md's header.
func TestResultsFullCoversEveryExperiment(t *testing.T) {
	b, err := os.ReadFile("results_full.txt")
	if err != nil {
		t.Fatal(err)
	}
	text := string(b)
	for _, id := range bench.List() {
		if !strings.Contains(text, "== "+id+" ==\n") {
			t.Errorf("results_full.txt has no %q block", "== "+id+" ==")
		}
	}
}
