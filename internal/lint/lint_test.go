package lint_test

import (
	"path/filepath"
	"testing"

	"golang.org/x/tools/go/analysis"

	"github.com/streammatch/apcm/internal/lint"
	"github.com/streammatch/apcm/internal/lint/linttest"
)

// TestAnalyzers runs every analyzer over its fixture package and checks
// the diagnostics against the // want comments — both that seeded
// violations fire and that the sanctioned patterns stay silent.
func TestAnalyzers(t *testing.T) {
	for _, a := range lint.Analyzers() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			t.Parallel()
			linttest.Run(t, filepath.Join("testdata", "src", a.Name), a)
		})
	}
}

// TestSuiteShape pins the suite contents: renaming an analyzer silently
// orphans its fixture directory, and the seeded-violation smoke test
// (make lint-smoke) expects a finding from every analyzer listed here.
func TestSuiteShape(t *testing.T) {
	want := []string{
		"hotpathalloc", "scratchrelease", "metricname", "lockorder",
		"goroutinelife", "fsyncorder",
	}
	got := lint.Analyzers()
	if len(got) != len(want) {
		t.Fatalf("Analyzers() returned %d analyzers, want %d", len(got), len(want))
	}
	seen := make(map[string]bool)
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("Analyzers()[%d] = %s, want %s", i, a.Name, want[i])
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %s", a.Name)
		}
		seen[a.Name] = true
		if a.Doc == "" {
			t.Errorf("analyzer %s has no Doc", a.Name)
		}
		var _ *analysis.Analyzer = a
	}
}
