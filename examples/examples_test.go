package examples

import (
	"crypto/sha256"
	"encoding/hex"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// pinned is the SHA-256 of each example's stdout. Every example is seeded,
// so its output changes only when what it computes does.
var pinned = map[string]string{
	"meshsim":    "f58cd1ba425dd4500c377d766516c282ecc3e2524151add97fe880f2d4a1090e",
	"quickstart": "5e63d9fb78b649573201eadea2fd78aee252891e6cd164e59fe37083409519d1",
	"sparsevc":   "f9dcbb46ec34142645b0cf58f3e8c38aacabf270e994af70f3269343a64378ff",
	"specswitch": "e72571542af8ec44b37c35fd5ac936f34c3ea396d7822d84f91f8e2b4df73ed3",
}

// TestExamplesStdoutPinned builds every example, runs it to completion and
// holds its stdout to the pinned hash.
func TestExamplesStdoutPinned(t *testing.T) {
	bin := t.TempDir()
	args := []string{"build", "-o", bin + string(filepath.Separator)}
	for name := range pinned {
		args = append(args, "./"+name)
	}
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for name, want := range pinned {
		t.Run(name, func(t *testing.T) {
			cmd := exec.Command(filepath.Join(bin, name))
			var stderr strings.Builder
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s: %v\n%s", name, err, stderr.String())
			}
			sum := sha256.Sum256(out)
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("%s stdout SHA-256 %s, want %s; it printed:\n%s", name, got, want, out)
			}
		})
	}
}
