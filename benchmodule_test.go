package ifpxq

import (
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
)

// TestBenchmarkModuleBuilds vets benchmark/, a Go module of its own
// (`replace repro => ../`) that `go build ./...` and `go test ./...` never
// compile. Removing or renaming anything it imports from this module turns
// this test red instead of breaking `go run -C benchmark .` unseen.
func TestBenchmarkModuleBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a second module")
	}
	// The toolchain that built this test binary, not whatever `go` is on PATH.
	//lint:ignore SA1019 a test binary runs on the machine that built it
	goTool := filepath.Join(runtime.GOROOT(), "bin", "go")
	out, err := exec.Command(goTool, "vet", "-C", "benchmark", "./...").CombinedOutput()
	if err != nil {
		t.Fatalf("go vet -C benchmark ./...: %v\n%s", err, out)
	}
}
