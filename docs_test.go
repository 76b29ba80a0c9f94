package dssp

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The documents whose test names must exist and, for the first two, whose
// numbered headings the repository's "§" references point at.
const (
	designDoc   = "DESIGN.md"
	protocolDoc = "docs/PROTOCOL.md"
)

var (
	// A test, fuzz target, benchmark or example function, as a document
	// spells it: the prefix, then an upper-case letter, digit or underscore
	// ("Tests" and "Benchmarks" are words, not names).
	docTestName = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark|Example)[A-Z0-9_][A-Za-z0-9_]*`)
	// The same names where a _test.go file declares them.
	declaredTestName = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark|Example)[A-Za-z0-9_]*)\(`)
	// A numbered heading: "## 3d. Title", "### 2.1 Title", "### 5b.1 Title".
	numberedHeading = regexp.MustCompile(`(?m)^#{2,4} (\d+[a-z]?(?:\.\d+)*)[. ]`)
	// A section reference, optionally qualified by the document it names:
	// "DESIGN.md §N", "`docs/PROTOCOL.md` §N", "[`docs/PROTOCOL.md`](…) §N",
	// and the qualifier at a line's end with "§N" on the next comment line,
	// N a number with an optional letter and dotted subsections ("4b",
	// "5b.1"). A paper section ("§V-C") is not matched.
	sectionRef = regexp.MustCompile("(?:(DESIGN|PROTOCOL)\\.md`?(?:\\]\\([^)]*\\))?\\)?(?:\\s|//|#)*)?§(\\d+[a-z]?(?:\\.\\d+)*)")
)

// TestDocsNameWhatExists keeps the documents' names true: every test
// function DESIGN.md, README.md, docs/PROTOCOL.md and docs/METRICS.md name is
// declared in some _test.go of the repository (bench/ included), and every
// "DESIGN.md §N" or "docs/PROTOCOL.md §N" reference in the repository's Go,
// Markdown, shell, YAML and Makefile text, and every bare "§N" inside either
// document, names a heading that document has.
func TestDocsNameWhatExists(t *testing.T) {
	// What building, testing and running leave behind is listed in
	// .gitignore; its directories (.bench-gate holds a whole second tree)
	// are not the repository's text, and neither is .git.
	skip := map[string]bool{".git": true}
	ignore, err := os.ReadFile(".gitignore")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(ignore), "\n") {
		if line = strings.TrimSpace(line); !strings.HasPrefix(line, "#") && strings.HasSuffix(line, "/") {
			skip[strings.Trim(line, "/")] = true
		}
	}
	declared := map[string]bool{}
	var texts []string // repository files that may hold section references
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if skip[filepath.ToSlash(path)] {
				return filepath.SkipDir
			}
			return nil
		}
		switch {
		case strings.HasSuffix(name, "_test.go"):
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range declaredTestName.FindAllSubmatch(b, -1) {
				declared[string(m[1])] = true
			}
			texts = append(texts, path)
		case name == "Makefile", strings.HasSuffix(name, ".go"), strings.HasSuffix(name, ".md"),
			strings.HasSuffix(name, ".sh"), strings.HasSuffix(name, ".yml"):
			texts = append(texts, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	read := func(path string) string {
		t.Helper()
		b, err := os.ReadFile(filepath.FromSlash(path))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	// (a) Test names.
	named := 0
	for _, doc := range []string{designDoc, "README.md", protocolDoc, "docs/METRICS.md"} {
		seen := map[string]bool{}
		for _, name := range docTestName.FindAllString(read(doc), -1) {
			if seen[name] {
				continue
			}
			seen[name] = true
			named++
			if !declared[name] {
				t.Errorf("%s names %s, which no _test.go declares", doc, name)
			}
		}
	}

	// (b) Section references.
	headings := map[string]map[string]bool{}
	for prefix, doc := range map[string]string{"DESIGN": designDoc, "PROTOCOL": protocolDoc} {
		headings[prefix] = map[string]bool{}
		for _, m := range numberedHeading.FindAllStringSubmatch(read(doc), -1) {
			headings[prefix][m[1]] = true
		}
	}
	bare := map[string]string{filepath.FromSlash(designDoc): "DESIGN", filepath.FromSlash(protocolDoc): "PROTOCOL"}
	refs := 0
	for _, path := range texts {
		for _, m := range sectionRef.FindAllStringSubmatch(read(path), -1) {
			doc := m[1]
			if doc == "" {
				if doc = bare[path]; doc == "" {
					continue // a bare "§N" outside the two documents names nothing checkable
				}
			}
			refs++
			if !headings[doc][m[2]] {
				t.Errorf("%s cites %s.md §%s, a heading that document lacks", path, doc, m[2])
			}
		}
	}
	t.Logf("%d test names, %d section references checked", named, refs)
}
