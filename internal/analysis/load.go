package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one parsed and type-checked package.
type Package struct {
	Dir        string
	ImportPath string
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
}

// Pass returns the analysis pass view of the package.
func (p *Package) Pass(fset *token.FileSet) *Pass {
	return &Pass{Fset: fset, Files: p.Files, Pkg: p.Pkg, Info: p.Info}
}

// Loader parses and type-checks packages using only the standard
// library: module-internal imports are resolved against the module root
// by path prefix, everything else (the standard library) is type-checked
// from source via go/importer's "source" compiler. This avoids any
// dependency on golang.org/x/tools while still giving checkers full
// types.Info.
type Loader struct {
	Fset *token.FileSet
	// ModulePath/ModuleRoot describe the module whose internal imports
	// the loader resolves itself. Both may be empty for standalone
	// directories (fixtures) that import only the standard library.
	ModulePath string
	ModuleRoot string

	// mu serializes all loading: LoadDir and ImportFrom lock it, the
	// unlocked internals (loadDir, importFrom) do the work, and go/types
	// re-enters through loaderImporter — a separate type, so the
	// type-checker's recursive imports never try to re-lock. The byDir
	// and byPath maps are only touched with mu held.
	mu     sync.Mutex
	std    types.ImporterFrom
	byPath map[string]*Package
	byDir  map[string]*Package
}

// NewLoader returns a loader rooted at moduleRoot. If moduleRoot
// contains a go.mod, its module path is used to resolve internal
// imports; otherwise only standard-library imports are available.
func NewLoader(moduleRoot string) (*Loader, error) {
	fset := token.NewFileSet()
	l := &Loader{
		Fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		byPath: map[string]*Package{},
		byDir:  map[string]*Package{},
	}
	if moduleRoot != "" {
		abs, err := filepath.Abs(moduleRoot)
		if err != nil {
			return nil, err
		}
		l.ModuleRoot = abs
		if data, err := os.ReadFile(filepath.Join(abs, "go.mod")); err == nil {
			l.ModulePath = modulePath(string(data))
		}
	}
	return l, nil
}

// modulePath extracts the module path from go.mod contents.
func modulePath(gomod string) string {
	for _, line := range strings.Split(gomod, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom, routing module-internal
// paths to the loader and everything else to the source importer.
// Safe for concurrent use; loads are serialized on l.mu.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.importFrom(path, dir, mode)
}

// loaderImporter is the importer handed to types.Config: it reaches
// the unlocked internals directly, because conf.Check runs with l.mu
// already held and locking again would self-deadlock.
type loaderImporter struct{ l *Loader }

func (li loaderImporter) Import(path string) (*types.Package, error) {
	return li.l.importFrom(path, "", 0)
}

func (li loaderImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	return li.l.importFrom(path, dir, mode)
}

// importFrom is ImportFrom without the lock; callers hold l.mu.
func (l *Loader) importFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if l.ModulePath != "" && (path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/")) {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		pkg, err := l.loadDir(filepath.Join(l.ModuleRoot, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return pkg.Pkg, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// LoadDir parses and type-checks the package in dir (non-test files
// only). Results are memoized, so shared dependencies are checked once.
// Safe for concurrent use; loads are serialized on l.mu.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.loadDir(dir)
}

// loadDir is LoadDir without the lock; callers hold l.mu (go/types
// re-enters here via loaderImporter during conf.Check).
func (l *Loader) loadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if pkg, ok := l.byDir[abs]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("analysis: import cycle through %s", abs)
		}
		return pkg, nil
	}
	l.byDir[abs] = nil // cycle guard

	files, err := l.parseDir(abs)
	if err != nil {
		delete(l.byDir, abs) // clear the cycle guard: retries must not report a cycle
		return nil, err
	}
	if len(files) == 0 {
		delete(l.byDir, abs)
		return nil, fmt.Errorf("analysis: no buildable Go files in %s", abs)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	importPath := l.importPathFor(abs, files[0].Name.Name)
	conf := types.Config{Importer: loaderImporter{l}}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		delete(l.byDir, abs)
		return nil, fmt.Errorf("analysis: type-checking %s: %w", abs, err)
	}
	pkg := &Package{Dir: abs, ImportPath: importPath, Files: files, Pkg: tpkg, Info: info}
	l.byDir[abs] = pkg
	l.byPath[importPath] = pkg
	return pkg, nil
}

// importPathFor derives the import path of dir relative to the module
// root, falling back to the package name for standalone directories.
func (l *Loader) importPathFor(dir, pkgName string) string {
	if l.ModuleRoot != "" && l.ModulePath != "" {
		if rel, err := filepath.Rel(l.ModuleRoot, dir); err == nil && !strings.HasPrefix(rel, "..") {
			if rel == "." {
				return l.ModulePath
			}
			return l.ModulePath + "/" + filepath.ToSlash(rel)
		}
	}
	return pkgName
}

// parseDir parses the non-test Go files of dir with comments (needed
// for suppression directives). Build constraints — //go:build and
// legacy +build lines as well as _GOOS/_GOARCH filename suffixes — are
// evaluated against the host target via go/build, so e.g. a
// //go:build amd64 kernel shim is type-checked on amd64 while its
// !amd64 fallback (and anything tagged ignore) is skipped, matching
// what `go build` would compile.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		match, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, fmt.Errorf("analysis: build constraints of %s: %w", filepath.Join(dir, name), err)
		}
		if !match {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// PackageDirs walks root and returns every directory containing
// buildable (non-test) Go files, skipping testdata, vendor, hidden
// directories, and anything in skip.
func PackageDirs(root string, skip map[string]bool) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if skip[path] {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	// WalkDir visits files of a dir contiguously, but dedupe defensively.
	out := dirs[:0]
	for i, d := range dirs {
		if i == 0 || dirs[i-1] != d {
			out = append(out, d)
		}
	}
	return out, nil
}
