package analysis

import (
	"go/build"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// writeTree creates a temporary file tree from relative path -> content.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, content := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestLoadDirParseError(t *testing.T) {
	root := writeTree(t, map[string]string{
		"bad.go": "package bad\n\nfunc broken( {\n",
	})
	loader, err := NewLoader("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loader.LoadDir(root); err == nil {
		t.Fatal("LoadDir accepted a file with a syntax error")
	}
	// The failed load must not be memoized as a success or a cycle.
	if _, err := loader.LoadDir(root); err == nil || strings.Contains(err.Error(), "cycle") {
		t.Fatalf("second LoadDir after parse error: %v", err)
	}
}

func TestLoadDirTypeError(t *testing.T) {
	root := writeTree(t, map[string]string{
		"bad.go": "package bad\n\nvar x int = \"not an int\"\n",
	})
	loader, err := NewLoader("")
	if err != nil {
		t.Fatal(err)
	}
	_, err = loader.LoadDir(root)
	if err == nil || !strings.Contains(err.Error(), "type-checking") {
		t.Fatalf("LoadDir on type error = %v, want type-checking error", err)
	}
	// Retry must surface the same error, not a bogus cycle report.
	if _, err := loader.LoadDir(root); err == nil || strings.Contains(err.Error(), "cycle") {
		t.Fatalf("second LoadDir after type error: %v", err)
	}
}

func TestLoadDirSkipsBuildTagged(t *testing.T) {
	root := writeTree(t, map[string]string{
		"ok.go": "package p\n\nfunc Kept() {}\n",
		"gen.go": "//go:build ignore\n\npackage main\n\n" +
			"func main() { undefinedOnPurpose() }\n",
		"legacy.go": "// +build ignore\n\npackage main\n\n" +
			"func alsoExcluded() { stillUndefined() }\n",
	})
	loader, err := NewLoader("")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(root)
	if err != nil {
		t.Fatalf("LoadDir should skip build-tag-excluded files: %v", err)
	}
	if len(pkg.Files) != 1 {
		t.Fatalf("loaded %d files, want 1 (only ok.go)", len(pkg.Files))
	}
	if pkg.Pkg.Scope().Lookup("Kept") == nil {
		t.Error("ok.go not type-checked")
	}
}

func TestLoadDirEvaluatesTargetConstraints(t *testing.T) {
	arch := build.Default.GOARCH
	other := "arm64"
	if arch == other {
		other = "amd64"
	}
	root := writeTree(t, map[string]string{
		"ok.go": "package p\n\nfunc Kept() int { return impl() }\n",
		// Satisfied constraint: must be type-checked (it defines impl).
		"native.go": "//go:build " + arch + "\n\npackage p\n\nfunc impl() int { return 1 }\n",
		// Unsatisfied negation: skipping it is what keeps impl unique.
		"fallback.go": "//go:build !" + arch + "\n\npackage p\n\nfunc impl() int { return 0 }\n",
		// Wrong-arch filename suffix, no constraint comment at all.
		"p_" + other + ".go": "package p\n\nfunc suffixExcluded() { alsoUndefined() }\n",
	})
	loader, err := NewLoader("")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(root)
	if err != nil {
		t.Fatalf("LoadDir should evaluate GOOS/GOARCH constraints: %v", err)
	}
	if len(pkg.Files) != 2 {
		t.Fatalf("loaded %d files, want 2 (ok.go + native.go)", len(pkg.Files))
	}
	if pkg.Pkg.Scope().Lookup("Kept") == nil {
		t.Error("ok.go not type-checked")
	}
}

func TestLoadDirNoBuildableFiles(t *testing.T) {
	root := writeTree(t, map[string]string{
		"only_test.go": "package p\n",
		"notes.txt":    "not go",
	})
	loader, err := NewLoader("")
	if err != nil {
		t.Fatal(err)
	}
	_, err = loader.LoadDir(root)
	if err == nil || !strings.Contains(err.Error(), "no buildable Go files") {
		t.Fatalf("LoadDir = %v, want no-buildable-files error", err)
	}
}

func TestPackageDirsSkipsNonPackageTrees(t *testing.T) {
	root := writeTree(t, map[string]string{
		"a/a.go":                "package a\n",
		"a/testdata/fixture.go": "package fixture\n",
		"vendor/v/v.go":         "package v\n",
		".hidden/h.go":          "package h\n",
		"_tools/t.go":           "package t\n",
		"b/only_test.go":        "package b\n",
		"b/c/c.go":              "package c\n",
	})
	dirs, err := PackageDirs(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		filepath.Join(root, "a"),
		filepath.Join(root, "b", "c"),
	}
	if len(dirs) != len(want) {
		t.Fatalf("PackageDirs = %v, want %v", dirs, want)
	}
	for i := range want {
		if dirs[i] != want[i] {
			t.Fatalf("PackageDirs[%d] = %q, want %q", i, dirs[i], want[i])
		}
	}
}

func TestPackageDirsSkipSet(t *testing.T) {
	root := writeTree(t, map[string]string{
		"a/a.go": "package a\n",
		"b/b.go": "package b\n",
	})
	skip := map[string]bool{filepath.Join(root, "b"): true}
	dirs, err := PackageDirs(root, skip)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 1 || dirs[0] != filepath.Join(root, "a") {
		t.Fatalf("PackageDirs with skip = %v", dirs)
	}
}

// TestLoaderConcurrentLoad pins the loader's race safety under `go
// test -race`: one loader, several goroutines, two package trees that
// share a dependency. Both structures this exercises — the byDir memo
// (with its nil cycle guard) and byPath — were mutated bare before the
// loads were serialized on Loader.mu.
func TestLoaderConcurrentLoad(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":           "module demo\n\ngo 1.22\n",
		"shared/shared.go": "package shared\n\nfunc Scratch() {}\n",
		"alpha/alpha.go": "package alpha\n\nimport \"demo/shared\"\n\n" +
			"func UseA() { shared.Scratch() }\n",
		"beta/beta.go": "package beta\n\nimport \"demo/shared\"\n\n" +
			"func UseB() { shared.Scratch() }\n",
	})
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	dirs := []string{
		filepath.Join(root, "alpha"),
		filepath.Join(root, "beta"),
		filepath.Join(root, "shared"),
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4*len(dirs))
	for round := 0; round < 4; round++ {
		for _, dir := range dirs {
			wg.Add(1)
			go func(dir string) {
				defer wg.Done()
				_, err := loader.LoadDir(dir)
				errs <- err
			}(dir)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("concurrent LoadDir: %v", err)
		}
	}
	// The memo held: both dependents import the one type-checked shared
	// package, not a copy each.
	shared, err := loader.LoadDir(dirs[2])
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs[:2] {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if imps := pkg.Pkg.Imports(); len(imps) != 1 || imps[0] != shared.Pkg {
			t.Errorf("%s imports %v, want the memoized demo/shared", filepath.Base(dir), imps)
		}
	}
}

func TestModulePathParsing(t *testing.T) {
	cases := []struct {
		gomod, want string
	}{
		{"module prionn\n\ngo 1.22\n", "prionn"},
		{"// comment\nmodule \"quoted/path\"\n", "quoted/path"},
		{"go 1.22\n", ""},
	}
	for _, tc := range cases {
		if got := modulePath(tc.gomod); got != tc.want {
			t.Errorf("modulePath(%q) = %q, want %q", tc.gomod, got, tc.want)
		}
	}
}
