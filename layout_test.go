package cosched

import (
	"go/ast"
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

// removedIdentifiers are names DESIGN.md or README.md cite as removed:
// they stay in the record without occurring in the code.
var removedIdentifiers = map[string]bool{
	"Options.Parallel":    true,
	"BenchmarkCompile":    true,
	"BenchmarkCompiledAt": true,
}

// docIdentifier matches a backticked camelCase Go identifier or a
// backticked Type.Member reference, with an optional call suffix. A
// Type has a lower-case letter, so file names such as `PAPER.md` are no
// references.
var docIdentifier = regexp.MustCompile("`((?:[A-Za-z_][A-Za-z0-9_]*[a-z0-9][A-Z][A-Za-z0-9_]*)|(?:[A-Z][A-Z0-9_]*[a-z][A-Za-z0-9_]*\\.[A-Za-z_][A-Za-z0-9_]*))(?:\\(\\))?`")

// docPackageRef matches the start of a backticked qualified identifier,
// `pkg.Name` or `pkg.Type.Member`, capturing pkg, Name and Member (empty
// when absent). Only exported names can be qualified, so file names
// (`service.go`) and metric names (`model.hits`) are no references;
// whatever follows (a call, a deeper selector) is not checked here.
var docPackageRef = regexp.MustCompile("`([a-z][a-z0-9]*)\\.([A-Z][A-Za-z0-9_]*)(?:\\.([A-Za-z_][A-Za-z0-9_]*))?")

// packageDecls returns the top-level identifiers (functions, types,
// variables and constants) of every package under internal/, test files
// of the package included, keyed by package name.
func packageDecls(t *testing.T) map[string]map[string]bool {
	t.Helper()
	decls := map[string]map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := f.Name.Name
		if strings.HasSuffix(pkg, "_test") {
			return nil
		}
		if decls[pkg] == nil {
			decls[pkg] = map[string]bool{}
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					decls[pkg][decl.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						decls[pkg][spec.Name.Name] = true
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							decls[pkg][name.Name] = true
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls
}

// goIdentifiers returns every identifier and string literal of every Go
// file in the repository (a policy rule's name is a string), and the
// Type.Member pairs the files declare: methods by receiver type, and
// struct fields and interface methods by type.
func goIdentifiers(t *testing.T) (idents, members map[string]bool) {
	t.Helper()
	idents, members = map[string]bool{}, map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				idents[n.Name] = true
			case *ast.BasicLit:
				if v, err := strconv.Unquote(n.Value); n.Kind == token.STRING && err == nil {
					idents[v] = true
				}
			case *ast.FuncDecl:
				if n.Recv != nil && len(n.Recv.List) == 1 {
					if recv := receiverType(n.Recv.List[0].Type); recv != "" {
						members[recv+"."+n.Name.Name] = true
					}
				}
			case *ast.TypeSpec:
				var fields *ast.FieldList
				switch x := n.Type.(type) {
				case *ast.StructType:
					fields = x.Fields
				case *ast.InterfaceType:
					fields = x.Methods
				default:
					return true
				}
				for _, fld := range fields.List {
					for _, name := range fld.Names {
						members[n.Name.Name+"."+name.Name] = true
					}
					if len(fld.Names) == 0 { // embedded: the type's own name
						members[n.Name.Name+"."+receiverType(fld.Type)] = true
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return idents, members
}

// receiverType returns the type name of a receiver or embedded field
// expression: T, *T, T[P], pkg.T.
func receiverType(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.StarExpr:
		return receiverType(x.X)
	case *ast.IndexExpr:
		return receiverType(x.X)
	case *ast.IndexListExpr:
		return receiverType(x.X)
	case *ast.SelectorExpr:
		return x.Sel.Name
	}
	return ""
}

// TestDocIdentifiersExist fails when DESIGN.md or README.md cites, in
// backticks, a camelCase identifier that no Go file contains, a
// Type.Member that no Go file declares, a pkg.Name, pkg a package under
// internal/, that is no top-level identifier of that package, or a
// pkg.Type.Member whose Type declares no such Member: the
// docs must describe the code as it is. Names the docs record as
// removed are listed in removedIdentifiers, and each must still be
// cited.
func TestDocIdentifiersExist(t *testing.T) {
	idents, members := goIdentifiers(t)
	decls := packageDecls(t)
	cited := map[string]bool{}
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docPackageRef.FindAllStringSubmatch(string(raw), -1) {
			pkg, name, member := m[1], m[2], m[3]
			if decls[pkg] == nil {
				continue
			}
			switch {
			case removedIdentifiers[pkg+"."+name]:
				cited[pkg+"."+name] = true
			case !decls[pkg][name]:
				t.Errorf("%s cites `%s.%s`, which is no top-level identifier of package %s", doc, pkg, name, pkg)
			case member != "" && !members[name+"."+member]:
				t.Errorf("%s cites `%s.%s.%s`, which no Go file declares", doc, pkg, name, member)
			}
		}
		for _, m := range docIdentifier.FindAllStringSubmatch(string(raw), -1) {
			name := m[1]
			if removedIdentifiers[name] {
				cited[name] = true
				continue
			}
			if strings.Contains(name, ".") {
				if !members[name] {
					t.Errorf("%s cites `%s`, which no Go file declares", doc, name)
				}
			} else if !idents[name] {
				t.Errorf("%s cites `%s`, which occurs in no Go file", doc, name)
			}
		}
	}
	for name := range removedIdentifiers {
		if !cited[name] {
			t.Errorf("removedIdentifiers lists `%s`, which no doc cites", name)
		}
	}
}
