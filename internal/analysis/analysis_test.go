package analysis

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts expectation substrings from fixture comments of the
// form `// want "some message fragment"`.
var wantRe = regexp.MustCompile(`want "([^"]+)"`)

// loadFixture type-checks testdata/src/<name> as a standalone package
// (stdlib imports only, resolved from source).
func loadFixture(t *testing.T, name string) (*Loader, *Package) {
	t.Helper()
	loader, err := NewLoader("")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return loader, pkg
}

// collectWants returns the expected message fragments per line.
func collectWants(p *Pass) map[int][]string {
	wants := map[int][]string{}
	for _, file := range p.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				line := p.Fset.Position(c.Pos()).Line
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					wants[line] = append(wants[line], m[1])
				}
			}
		}
	}
	return wants
}

// TestCheckerFixtures runs every checker against its golden fixture:
// each `// want` comment must match a finding on its line, and every
// finding must be anticipated by a want comment.
func TestCheckerFixtures(t *testing.T) {
	for _, c := range All() {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			loader, pkg := loadFixture(t, c.Name())
			pass := pkg.Pass(loader.Fset)
			findings := RunAll(pass, []Checker{c})
			wants := collectWants(pass)

			if len(wants) == 0 {
				t.Fatalf("fixture for %s has no want comments", c.Name())
			}

			byLine := map[int][]Finding{}
			for _, f := range findings {
				if f.Check != c.Name() {
					t.Errorf("checker %s reported a %s finding", c.Name(), f.Check)
				}
				byLine[f.Line] = append(byLine[f.Line], f)
			}

			for line, frags := range wants {
				for _, frag := range frags {
					matched := false
					for _, f := range byLine[line] {
						if strings.Contains(f.Message, frag) {
							matched = true
							break
						}
					}
					if !matched {
						t.Errorf("line %d: want %q not reported; findings there: %v", line, frag, messages(byLine[line]))
					}
				}
			}

			for line, fs := range byLine {
				for _, f := range fs {
					matched := false
					for _, frag := range wants[line] {
						if strings.Contains(f.Message, frag) {
							matched = true
							break
						}
					}
					if !matched {
						t.Errorf("unexpected finding at line %d: %s", line, f.Message)
					}
				}
			}
		})
	}
}

func messages(fs []Finding) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.Message
	}
	return out
}

// TestSuppression checks that //prionnvet:ignore silences findings —
// and that the fixture genuinely triggers checkers when the filter is
// bypassed, so the test cannot rot into vacuity.
func TestSuppression(t *testing.T) {
	loader, pkg := loadFixture(t, "suppress")
	pass := pkg.Pass(loader.Fset)

	if got := RunAll(pass, nil); len(got) != 0 {
		t.Errorf("suppressed fixture reported %d finding(s): %v", len(got), got)
	}

	raw := 0
	for _, c := range All() {
		raw += len(c.Run(pass))
	}
	if raw < 4 {
		t.Errorf("raw checkers found only %d violation(s) in the suppress fixture; expected >= 4 (fixture rotted?)", raw)
	}
}

// TestIgnoreReasonMetaFinding pins the satellite contract: a directive
// without " -- reason" still suppresses the named check but yields an
// ignore-reason meta-finding — which no directive can silence.
func TestIgnoreReasonMetaFinding(t *testing.T) {
	loader, pkg := loadFixture(t, "ignore-reason")
	pass := pkg.Pass(loader.Fset)
	got := RunAll(pass, nil)
	if len(got) != 1 {
		t.Fatalf("RunAll = %v, want exactly one ignore-reason finding", got)
	}
	f := got[0]
	if f.Check != "ignore-reason" || f.Line != 7 {
		t.Errorf("finding = %+v, want ignore-reason at line 7", f)
	}
	if !strings.Contains(f.Message, "float-eq") {
		t.Errorf("message %q does not name the suppressed check", f.Message)
	}
	if f.Doc != ignoreReasonDoc {
		t.Errorf("doc = %q, want %q", f.Doc, ignoreReasonDoc)
	}
}

// TestSuppressionScope pins the directive's reach: its own line and the
// next line, nothing further.
func TestSuppressionScope(t *testing.T) {
	sup := suppressions{
		"f.go": {10: {"float-eq": true}, 20: {"all": true}},
	}
	cases := []struct {
		finding Finding
		want    bool
	}{
		{Finding{Check: "float-eq", File: "f.go", Line: 10}, true},
		{Finding{Check: "float-eq", File: "f.go", Line: 11}, true},
		{Finding{Check: "float-eq", File: "f.go", Line: 12}, false},
		{Finding{Check: "float-eq", File: "f.go", Line: 9}, false},
		{Finding{Check: "unchecked-err", File: "f.go", Line: 10}, false},
		{Finding{Check: "unchecked-err", File: "f.go", Line: 21}, true},
		{Finding{Check: "float-eq", File: "g.go", Line: 10}, false},
	}
	for i, tc := range cases {
		if got := sup.suppressed(tc.finding); got != tc.want {
			t.Errorf("case %d (%+v): suppressed = %v, want %v", i, tc.finding, got, tc.want)
		}
	}
}

// TestFindingString pins the report format scripts grep for.
func TestFindingString(t *testing.T) {
	f := Finding{Check: "float-eq", Message: "m", File: "a/b.go", Line: 3, Col: 7}
	if got, want := f.String(), "a/b.go:3:7: float-eq: m"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestLoaderModuleResolution loads a package from this repo through the
// module-aware path (prionn/... imports resolved by the loader itself).
func TestLoaderModuleResolution(t *testing.T) {
	loader, err := NewLoader(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	if loader.ModulePath != "prionn" {
		t.Fatalf("module path = %q, want prionn", loader.ModulePath)
	}
	// internal/metrics has no intra-module imports; internal/ioaware
	// imports it, exercising ImportFrom's module branch.
	pkg, err := loader.LoadDir(filepath.Join("..", "ioaware"))
	if err != nil {
		t.Fatalf("LoadDir(internal/ioaware): %v", err)
	}
	if pkg.ImportPath != "prionn/internal/ioaware" {
		t.Errorf("import path = %q", pkg.ImportPath)
	}
	if pkg.Pkg.Scope().Lookup("SeriesAccuracy") == nil {
		t.Errorf("type info missing SeriesAccuracy")
	}
}

// TestByName covers lookup, including the failure path the CLI relies on
// for its -checks validation.
func TestByName(t *testing.T) {
	for _, c := range All() {
		got := ByName(c.Name())
		if got == nil || got.Name() != c.Name() {
			t.Errorf("ByName(%q) = %v", c.Name(), got)
		}
		if c.Doc() == "" {
			t.Errorf("checker %s has no doc line", c.Name())
		}
	}
	if ByName("no-such-check") != nil {
		t.Errorf("ByName(no-such-check) should be nil")
	}
}

func ExampleFinding_String() {
	f := Finding{Check: "unseeded-rand", Message: "example", File: "x.go", Line: 1, Col: 1}
	fmt.Println(f.String())
	// Output: x.go:1:1: unseeded-rand: example
}
