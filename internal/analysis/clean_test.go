package analysis_test

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/bodyclose"
	"repro/internal/analysis/determinism"
	"repro/internal/analysis/golifecycle"
)

// TestRepoTipIsClean is the acceptance gate in test form: the whole
// module, at the current tip, must produce zero diagnostics from every
// analyzer in the suite. A failure here means a nondeterministic
// iteration crept toward an output, a goroutine escaped its owner's
// shutdown, or a response body was left open — exactly the regressions
// the suite exists to stop.
func TestRepoTipIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatalf("go env GOMOD: %v", err)
	}
	root := filepath.Dir(strings.TrimSpace(string(out)))
	pkgs, err := analysis.Load(root, "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	diags, err := analysis.Run(pkgs, []*analysis.Analyzer{
		bodyclose.Analyzer,
		determinism.Analyzer,
		golifecycle.Analyzer,
	})
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
