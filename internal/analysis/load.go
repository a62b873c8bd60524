// Package analysis is the static check behind this repository's one
// runtime-API contract that no run can see, heap-escape: the ⟨processor,
// offset⟩ packing of gaddr.GP is an implementation detail of the runtime
// layers, and nothing else unpacks, forges, or does arithmetic on it. A
// forged pointer can equal the one rt.FieldPtr would give, so only the
// source tells them apart. It is built on the standard library alone
// (go/ast, go/parser, go/types) — package loading shells out to `go list
// -export` for compiled export data instead of depending on
// golang.org/x/tools.
//
// The other contracts a hand port keeps are guarded where the kernels run
// (DESIGN.md §8): machine.LoopScheduler.Sync panics when a Spawn body
// syncs its parent, rt.Runtime.SiteFaults records a bad or shared site
// name, and internal/bench's TestKernelContracts wants every future
// touched exactly once.
//
// TestSelfHostZeroFindings gates the whole module; perf's
// TestSourceHygiene gates perf/.
package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one typechecked unit: a package's source files (test files
// included) together with its type information.  External test packages
// (package foo_test) load as their own unit with Path suffixed "_test".
type Package struct {
	Path  string // import path of the unit
	Name  string // package name
	Dir   string // directory holding the source files
	Mod   string // module path, e.g. "repro"
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader typechecks packages against compiled export data.  One `go list
// -deps -export -json -test` run at construction maps every import path
// reachable from the module to its export file; Load and LoadDir then
// parse target sources and typecheck them with that map as the importer.
type Loader struct {
	Dir     string // module root the go tool runs in
	Mod     string // module path
	fset    *token.FileSet
	exports map[string]string // import path -> export data file
	imp     types.Importer
}

// listPkg is the slice of `go list -json` output the loader reads.
type listPkg struct {
	Dir          string
	ImportPath   string
	Name         string
	Export       string
	ForTest      string
	Standard     bool
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Module       *struct{ Path string }
}

// NewLoader shells out once for the module rooted at dir (typically the
// repository root) and indexes export data for everything `./...` and its
// tests depend on.
func NewLoader(dir string) (*Loader, error) {
	l := &Loader{
		Dir:     dir,
		fset:    token.NewFileSet(),
		exports: map[string]string{},
	}
	pkgs, err := l.goList("-deps", "-export", "-test", "./...")
	if err != nil {
		return nil, err
	}
	for _, p := range pkgs {
		if p.Module != nil && !p.Standard && l.Mod == "" {
			l.Mod = p.Module.Path
		}
		if p.Export == "" {
			continue
		}
		path := cleanImportPath(p.ImportPath)
		// Prefer the base variant of a package over its
		// test-augmented recompilation ("pkg [pkg.test]").
		if _, ok := l.exports[path]; !ok || p.ForTest == "" {
			l.exports[path] = p.Export
		}
	}
	l.imp = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := l.exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
	return l, nil
}

// cleanImportPath strips the " [pkg.test]" suffix go list attaches to
// test variants.
func cleanImportPath(p string) string {
	if i := strings.Index(p, " ["); i >= 0 {
		return p[:i]
	}
	return p
}

func (l *Loader) goList(args ...string) ([]*listPkg, error) {
	cmd := exec.Command("go", append([]string{"list", "-json"}, args...)...)
	cmd.Dir = l.Dir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, errb.String())
	}
	var pkgs []*listPkg
	dec := json.NewDecoder(&out)
	for {
		p := new(listPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// Load resolves the given package patterns (e.g. "./...") and typechecks
// each match from source.  A package's ordinary and internal-test files
// form one unit; its external test files, if any, form a second.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	roots, err := l.goList(patterns...)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, r := range roots {
		if r.Standard {
			continue
		}
		files := append(append([]string{}, r.GoFiles...), r.TestGoFiles...)
		if len(files) > 0 {
			p, err := l.check(r.ImportPath, r.Name, r.Dir, files)
			if err != nil {
				return nil, err
			}
			out = append(out, p)
		}
		if len(r.XTestGoFiles) > 0 {
			p, err := l.check(r.ImportPath+"_test", r.Name+"_test", r.Dir, r.XTestGoFiles)
			if err != nil {
				return nil, err
			}
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// LoadDir typechecks the .go files of a single directory that the go
// tool does not see — fixture packages under testdata/.  The directory
// must lie inside the loader's module so runtime imports resolve.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, e.Name())
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	sort.Strings(files)
	path := filepath.ToSlash(dir)
	if abs, err := filepath.Abs(dir); err == nil {
		if root, err2 := filepath.Abs(l.Dir); err2 == nil {
			if rel, err3 := filepath.Rel(root, abs); err3 == nil && !strings.HasPrefix(rel, "..") {
				path = l.Mod + "/" + filepath.ToSlash(rel)
			}
		}
	}
	return l.check(path, "", dir, files)
}

func (l *Loader) check(path, name, dir string, files []string) (*Package, error) {
	var parsed []*ast.File
	for _, f := range files {
		af, err := parser.ParseFile(l.fset, filepath.Join(dir, f), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, af)
	}
	if name == "" {
		name = parsed[0].Name.Name
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	cfg := types.Config{Importer: l.imp}
	tpkg, err := cfg.Check(path, l.fset, parsed, info)
	if err != nil {
		return nil, fmt.Errorf("typechecking %s: %v", path, err)
	}
	return &Package{
		Path:  path,
		Name:  name,
		Dir:   dir,
		Mod:   l.Mod,
		Fset:  l.fset,
		Files: parsed,
		Types: tpkg,
		Info:  info,
	}, nil
}
