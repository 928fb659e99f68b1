package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"prionn/internal/analysis"
)

// runCLI drives run() with captured streams, the same entry point main
// uses, so tests see exactly what a shell invocation would.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestListFlag(t *testing.T) {
	code, out, errb := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errb)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if want := len(analysis.All()); len(lines) != want {
		t.Fatalf("-list printed %d lines, want %d:\n%s", len(lines), want, out)
	}
	// Names pad to the longest registered one, so the doc column starts
	// at the same offset on every line.
	docCol := -1
	for i, c := range analysis.All() {
		if !strings.HasPrefix(lines[i], c.Name()+" ") {
			t.Errorf("line %d = %q, want prefix %q", i, lines[i], c.Name())
		}
		col := strings.Index(lines[i], c.Doc())
		if col < 0 {
			t.Errorf("line %d missing doc for %s", i, c.Name())
		} else if docCol >= 0 && col != docCol {
			t.Errorf("line %d: doc column %d, line 0 has %d — ragged -list output:\n%s", i, col, docCol, out)
		}
		if i == 0 {
			docCol = col
		}
	}
}

func TestUnknownCheck(t *testing.T) {
	code, _, errb := runCLI(t, "-checks", "no-such-check", "testdata/clean")
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errb, `unknown check "no-such-check"`) {
		t.Errorf("stderr %q does not name the bad check", errb)
	}
	// The error must enumerate every valid name so the fix is in the
	// message, not a second invocation of -list.
	for _, c := range analysis.All() {
		if !strings.Contains(errb, c.Name()) {
			t.Errorf("stderr does not list valid check %s", c.Name())
		}
	}
}

func TestCleanPackageExitsZero(t *testing.T) {
	code, out, errb := runCLI(t, "testdata/clean")
	if code != 0 || out != "" || errb != "" {
		t.Errorf("clean run: exit=%d stdout=%q stderr=%q, want 0 with no output", code, out, errb)
	}
}

func TestFindingsExitOne(t *testing.T) {
	code, out, errb := runCLI(t, "testdata/dirty")
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, errb)
	}
	// The dirty fixture is the registry's living proof: every registered
	// checker must fire at least once, so a checker that silently stops
	// firing (or a fixture edit that defuses a trigger) fails here.
	for _, c := range analysis.All() {
		if !strings.Contains(out, c.Name()+":") {
			t.Errorf("stdout has no %s finding:\n%s", c.Name(), out)
		}
	}
	// Text mode is one file:line:col line per finding, nothing under it.
	prefix := filepath.Join("cmd", "prionnvet", "testdata", "dirty", "dirty.go") + ":"
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if !strings.HasPrefix(line, prefix) {
			t.Errorf("stdout line %q is not a finding line", line)
		}
	}
	if !regexp.MustCompile(`\d+ finding\(s\)`).MatchString(errb) {
		t.Errorf("stderr = %q, want finding count summary", errb)
	}
}

func TestChecksSubset(t *testing.T) {
	code, out, _ := runCLI(t, "-checks", "map-order", "testdata/dirty")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(out, "map-order") || strings.Contains(out, "unchecked-err") {
		t.Errorf("-checks map-order should report only map-order findings:\n%s", out)
	}
}

func TestJSONShape(t *testing.T) {
	code, out, errb := runCLI(t, "-json", "testdata/dirty", "testdata/clean")
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, errb)
	}
	if errb != "" {
		t.Errorf("-json must keep stderr clean for piping, got %q", errb)
	}
	var report analysis.Report
	if err := json.Unmarshal([]byte(out), &report); err != nil {
		t.Fatalf("output is not a JSON report envelope: %v\n%s", err, out)
	}
	if report.SchemaVersion != analysis.SchemaVersion {
		t.Fatalf("schemaVersion = %d, want %d", report.SchemaVersion, analysis.SchemaVersion)
	}
	findings := report.Findings
	if len(findings) < len(analysis.All()) {
		t.Fatalf("got %d findings, want at least one per checker (%d)", len(findings), len(analysis.All()))
	}
	seen := map[string]bool{}
	wantFile := filepath.Join("cmd", "prionnvet", "testdata", "dirty", "dirty.go")
	for i, f := range findings {
		seen[f.Check] = true
		if f.File != wantFile {
			t.Errorf("finding %d file = %q, want module-relative %q", i, f.File, wantFile)
		}
		if f.Check == "" || f.Message == "" || f.Doc == "" {
			t.Errorf("finding %d missing check/message/doc: %+v", i, f)
		}
		// Findings anchor at one token: the end fields stay in the schema
		// and always equal the start.
		if f.Line <= 0 || f.Col <= 0 || f.Offset < 0 {
			t.Errorf("finding %d has a bad position: %+v", i, f)
		}
		if f.EndLine != f.Line || f.EndCol != f.Col || f.EndOffset != f.Offset {
			t.Errorf("finding %d: end position differs from start: %+v", i, f)
		}
		// Findings must be sorted (file, line, col, check) so JSON output
		// is diffable across commits.
		if i > 0 {
			p := findings[i-1]
			if p.Line > f.Line || (p.Line == f.Line && p.Col > f.Col) ||
				(p.Line == f.Line && p.Col == f.Col && p.Check > f.Check) {
				t.Errorf("findings %d..%d out of order: %s:%d:%d then %s:%d:%d",
					i-1, i, p.Check, p.Line, p.Col, f.Check, f.Line, f.Col)
			}
		}
	}
	for _, c := range analysis.All() {
		if !seen[c.Name()] {
			t.Errorf("no %s finding in JSON output", c.Name())
		}
	}
	// Every document is still a valid schemaVersion-2 one: "why" was
	// optional there, and nothing emits it any more.
	if strings.Contains(out, `"why"`) {
		t.Errorf("-json output carries a why key:\n%s", out)
	}
}

func TestJSONCleanEmitsEmptyFindings(t *testing.T) {
	code, out, _ := runCLI(t, "-json", "testdata/clean")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	var report analysis.Report
	if err := json.Unmarshal([]byte(out), &report); err != nil {
		t.Fatalf("clean -json output is not a report envelope: %v\n%s", err, out)
	}
	if report.SchemaVersion != analysis.SchemaVersion {
		t.Errorf("schemaVersion = %d, want %d", report.SchemaVersion, analysis.SchemaVersion)
	}
	// The findings array must serialize as [], not null, so downstream
	// jq pipelines never see a null.
	if !strings.Contains(out, `"findings": []`) {
		t.Errorf("clean -json output = %q, want empty findings array (not null)", out)
	}
}

func TestBadPathExitsTwo(t *testing.T) {
	code, _, errb := runCLI(t, "testdata/no-such-dir")
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errb, "prionnvet:") {
		t.Errorf("stderr = %q, want a prionnvet-prefixed error", errb)
	}
}

func TestBadFlagExitsTwo(t *testing.T) {
	code, _, errb := runCLI(t, "-definitely-not-a-flag")
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errb, "flag") {
		t.Errorf("stderr = %q, want flag usage error", errb)
	}
	// The usage text that follows describes -json as what it emits: the
	// versioned envelope, not a bare array.
	if !strings.Contains(errb, "{schemaVersion, findings}") || strings.Contains(errb, "JSON array") {
		t.Errorf("usage misdescribes -json:\n%s", errb)
	}
}
