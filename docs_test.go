package repro_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docTestRef matches a backticked test, benchmark or fuzz target name. A
// trailing "…" or "*" cites every function with that prefix; a "/…" suffix
// names a subtest, which resolves to its parent function.
var docTestRef = regexp.MustCompile("`((?:Test|Benchmark|Fuzz)[A-Za-z0-9_]*)(…|\\*)?(?:/[^`]*)?`")

var testFuncDecl = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)[A-Za-z0-9_]*)\(`)

// TestDocsNameExistingTests holds DESIGN.md and README.md to the tests they
// cite: every cited name must be a function declared in some _test.go file
// of the repository, so deleting or renaming a test fails here until the
// docs follow. ROADMAP.md, CHANGES.md and EXPERIMENTS.md are history and
// may name tests that are gone.
func TestDocsNameExistingTests(t *testing.T) {
	declared := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFuncDecl.FindAllSubmatch(src, -1) {
			declared[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	cited := 0
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docTestRef.FindAllStringSubmatch(string(src), -1) {
			cited++
			name, prefix := m[1], m[2] != ""
			if !declared[name] && !(prefix && anyWithPrefix(declared, name)) {
				t.Errorf("%s cites %s, which no _test.go declares", doc, m[0])
			}
		}
	}
	if cited == 0 {
		t.Fatal("found no cited tests in DESIGN.md or README.md")
	}
}

func anyWithPrefix(names map[string]bool, prefix string) bool {
	for n := range names {
		if strings.HasPrefix(n, prefix) {
			return true
		}
	}
	return false
}
