package erms_test

import (
	"os/exec"
	"testing"
)

// TestBenchModuleVets type-checks the benchmark against this checkout.
// bench/ is a module of its own (erms/bench, replace erms => ../), so the
// ./... patterns of `go build` and `go test` at the root never reach it and
// an internal/ API change could break the benchmark unnoticed until the
// pipeline runs it. `go vet` compiles the module, tests included, without
// running anything.
func TestBenchModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the bench module")
	}
	cmd := exec.Command("go", "vet", "./...")
	cmd.Dir = "bench"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("(cd bench && go vet ./...): %v\n%s", err, out)
	}
}
