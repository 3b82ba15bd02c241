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

// TestDocsListEveryPackage holds README.md's Architecture tree and DESIGN.md
// §2's inventory to the packages and commands on disk: every directory under
// internal/ and cmd/ must have a line of the tree under its parent and a row
// of the table, and neither may list one that is gone.
func TestDocsListEveryPackage(t *testing.T) {
	onDisk := map[string]bool{}
	for _, parent := range []string{"internal", "cmd"} {
		entries, err := os.ReadDir(parent)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() {
				onDisk[parent+"/"+e.Name()] = true
			}
		}
	}
	if len(onDisk) == 0 {
		t.Fatal("found no directories under internal/ or cmd/")
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	tree := map[string]bool{}
	_, arch, _ := strings.Cut(string(readme), "\n## Architecture\n")
	_, block, _ := strings.Cut(arch, "```\n")
	block, _, _ = strings.Cut(block, "```")
	parent := ""
	for _, line := range strings.Split(block, "\n") {
		name, _, _ := strings.Cut(strings.TrimSpace(line), " ")
		switch {
		case !strings.HasSuffix(name, "/"):
		case !strings.HasPrefix(line, " "):
			parent = name
		default:
			tree[parent+strings.TrimSuffix(name, "/")] = true
		}
	}

	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, inventory, _ := strings.Cut(string(design), "\n## 2. System inventory\n")
	inventory, _, _ = strings.Cut(inventory, "\n## 3.")
	table := map[string]bool{}
	for _, m := range inventoryRow.FindAllStringSubmatch(inventory, -1) {
		table[m[1]] = true
	}

	for _, c := range []struct {
		where  string
		listed map[string]bool
	}{{"README.md's Architecture tree", tree}, {"DESIGN.md §2", table}} {
		for dir := range onDisk {
			if !c.listed[dir] {
				t.Errorf("%s does not list %s", c.where, dir)
			}
		}
		for dir := range c.listed {
			if !onDisk[dir] {
				t.Errorf("%s lists %s, which is not a directory", c.where, dir)
			}
		}
	}
}

// inventoryRow matches the module cell of a row of DESIGN.md §2's table.
var inventoryRow = regexp.MustCompile("(?m)^\\| `((?:internal|cmd)/[a-z0-9]+)` \\|")

// TestReadmeQuickstartIsTheExample holds README.md's first Go block to
// examples/quickstart/main.go byte for byte, so the program the README shows
// is the one TestExamplesStdoutPinned builds and runs.
func TestReadmeQuickstartIsTheExample(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, block, ok := strings.Cut(string(readme), "```go\n")
	if !ok {
		t.Fatal("README.md has no Go block")
	}
	block, _, _ = strings.Cut(block, "```\n")
	example, err := os.ReadFile("examples/quickstart/main.go")
	if err != nil {
		t.Fatal(err)
	}
	if block != string(example) {
		t.Errorf("README.md's first Go block is not examples/quickstart/main.go; paste the file into it verbatim")
	}
}
