package clue

import (
	"os/exec"
	"testing"
)

// TestBenchmarkModuleVets type-checks the nested benchmark module against
// this tree. benchmark/ has its own go.mod, so `go build ./... && go test
// ./...` never sees it; an API change that breaks clue-e2e would otherwise
// surface only when the benchmark is next run.
func TestBenchmarkModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go tool on the nested module")
	}
	cmd := exec.Command("go", "vet", "./...")
	cmd.Dir = "benchmark"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in benchmark/: %v\n%s", err, out)
	}
}
