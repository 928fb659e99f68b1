// Command prionnvet is the repo's reproducibility gate: a stdlib-only
// vet pass (go/ast + go/types, no external deps) over the bug classes
// that silently make a same-seed rerun print different numbers —
// unseeded randomness, exact float comparison, dropped IO errors,
// unjoined goroutines and detached goroutines that can panic,
// unsynchronized package state, map-iteration order leaking into
// results, RNGs shared across goroutines or seeded from laundered wall
// time, wall-clock values flowing into data, and completion-order
// channel aggregation. The checkers share one def-use index; see
// DESIGN.md §6, which also says what the tool does not check (races,
// deadlocks, goroutine and arena lifetimes) and which tests do.
//
// Usage:
//
//	go run ./cmd/prionnvet [-json] [-checks a,b] [patterns...]
//
// Patterns are package directories or the ./... form (the default).
// Findings are suppressed at the site with
//
//	//prionnvet:ignore <check>[,<check>...] -- <justification>
//
// on the flagged line or the line above it. The justification is
// mandatory: a directive without " -- reason" still suppresses but is
// reported as an ignore-reason meta-finding, and one naming a check
// that is not registered as an ignore-unknown meta-finding. Exit
// status: 0 clean, 1 findings, 2 usage or load errors.
//
// With -json, the output is a versioned envelope (schemaVersion 2):
// {"schemaVersion": 2, "findings": [...]} where each finding carries
// check, doc, message, file, line, col, offset, endLine, endCol and
// endOffset (the end always equals the start: findings anchor at one
// token). Findings are sorted (file, line, col, check), so outputs are
// diffable across commits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"prionn/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("prionnvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit the versioned JSON report {schemaVersion, findings} instead of text")
	list := fs.Bool("list", false, "list available checks and exit")
	checksFlag := fs.String("checks", "", "comma-separated subset of checks to run (default: all)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		width := 0
		for _, name := range checkNames() {
			width = max(width, len(name))
		}
		for _, c := range analysis.All() {
			if _, err := fmt.Fprintf(stdout, "%-*s %s\n", width, c.Name(), c.Doc()); err != nil {
				_, _ = fmt.Fprintf(stderr, "prionnvet: %v\n", err)
				return 2
			}
		}
		return 0
	}

	checkers := analysis.All()
	if *checksFlag != "" {
		checkers = nil
		for _, name := range strings.Split(*checksFlag, ",") {
			name = strings.TrimSpace(name)
			c := analysis.ByName(name)
			if c == nil {
				_, _ = fmt.Fprintf(stderr, "prionnvet: unknown check %q; valid checks are %s\n", name, strings.Join(checkNames(), ", "))
				return 2
			}
			checkers = append(checkers, c)
		}
	}

	root, err := findModuleRoot()
	if err != nil {
		_, _ = fmt.Fprintf(stderr, "prionnvet: %v\n", err)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs, err := expandPatterns(patterns)
	if err != nil {
		_, _ = fmt.Fprintf(stderr, "prionnvet: %v\n", err)
		return 2
	}

	loader, err := analysis.NewLoader(root)
	if err != nil {
		_, _ = fmt.Fprintf(stderr, "prionnvet: %v\n", err)
		return 2
	}

	var findings []analysis.Finding
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			_, _ = fmt.Fprintf(stderr, "prionnvet: %v\n", err)
			return 2
		}
		findings = append(findings, analysis.RunAll(pkg.Pass(loader.Fset), checkers)...)
	}

	// Report paths relative to the module root for stable, clickable
	// output regardless of where the tool was invoked, then re-sort the
	// aggregate so multi-package output (and its JSON) is deterministic.
	for i := range findings {
		if rel, err := filepath.Rel(root, findings[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			findings[i].File = rel
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Check < b.Check
	})

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(analysis.NewReport(findings)); err != nil {
			_, _ = fmt.Fprintf(stderr, "prionnvet: %v\n", err)
			return 2
		}
	} else {
		for _, f := range findings {
			if _, err := fmt.Fprintln(stdout, f.String()); err != nil {
				_, _ = fmt.Fprintf(stderr, "prionnvet: %v\n", err)
				return 2
			}
		}
	}
	if len(findings) > 0 {
		if !*jsonOut {
			_, _ = fmt.Fprintf(stderr, "prionnvet: %d finding(s)\n", len(findings))
		}
		return 1
	}
	return 0
}

// checkNames returns every registered checker name, for the -checks
// error message and the -list column width.
func checkNames() []string {
	var names []string
	for _, c := range analysis.All() {
		names = append(names, c.Name())
	}
	return names
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// expandPatterns turns CLI patterns into package directories, resolved
// against the working directory as the go tool does. "dir/..."
// recurses; a plain path must itself contain Go files.
func expandPatterns(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(ds ...string) {
		for _, d := range ds {
			if !seen[d] {
				seen[d] = true
				dirs = append(dirs, d)
			}
		}
	}
	for _, pat := range patterns {
		recursive := false
		if pat == "..." {
			recursive = true
			pat = "."
		} else if strings.HasSuffix(pat, "/...") {
			recursive = true
			pat = strings.TrimSuffix(pat, "/...")
		}
		if pat == "" {
			pat = "."
		}
		abs, err := filepath.Abs(pat)
		if err != nil {
			return nil, err
		}
		if recursive {
			ds, err := analysis.PackageDirs(abs, nil)
			if err != nil {
				return nil, err
			}
			add(ds...)
		} else {
			add(abs)
		}
	}
	return dirs, nil
}
