package cosched

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

const internalPrefix = "cosched/internal/"

// repoImports parses the import block of every Go file in the repository
// (test files and the perfbench module included) and returns the
// internal packages each directory's files import.
func repoImports(t *testing.T) (pkgs []string, importers map[string][]string) {
	t.Helper()
	importers = map[string][]string{}
	seen := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if strings.HasPrefix(dir, "internal/") && !strings.HasSuffix(path, "_test.go") && !seen[dir] {
			seen[dir] = true
			pkgs = append(pkgs, dir)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if strings.HasPrefix(p, internalPrefix) {
				target := strings.TrimPrefix(p, "cosched/")
				importers[target] = append(importers[target], dir)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(pkgs)
	return pkgs, importers
}

// TestNoOrphanInternalPackages fails when an internal package is imported
// by nothing outside its own directory: such code re-derives a mechanism
// the program does not run, so it must become a test oracle of the code
// that does, or go.
func TestNoOrphanInternalPackages(t *testing.T) {
	pkgs, importers := repoImports(t)
	if len(pkgs) == 0 {
		t.Fatal("no internal packages found")
	}
	for _, pkg := range pkgs {
		used := false
		for _, dir := range importers[pkg] {
			if dir != pkg {
				used = true
				break
			}
		}
		if !used {
			t.Errorf("%s is imported by no package outside its own directory", pkg)
		}
	}
}

// TestDocTablesNameExistingPackages fails when the package layout in
// doc.go or README's package table names an internal path that does not
// exist.
func TestDocTablesNameExistingPackages(t *testing.T) {
	for _, c := range []struct {
		file string
		re   *regexp.Regexp
	}{
		{"doc.go", regexp.MustCompile(`(?m)^//\s+- (internal/[A-Za-z0-9_/]+)`)},
		{"README.md", regexp.MustCompile("(?m)^\\| `(internal/[A-Za-z0-9_/]+)`")},
	} {
		raw, err := os.ReadFile(c.file)
		if err != nil {
			t.Fatal(err)
		}
		matches := c.re.FindAllStringSubmatch(string(raw), -1)
		if len(matches) == 0 {
			t.Errorf("%s: no package table found", c.file)
		}
		for _, m := range matches {
			if fi, err := os.Stat(m[1]); err != nil || !fi.IsDir() {
				t.Errorf("%s names %s, which does not exist", c.file, m[1])
			}
		}
	}
}
