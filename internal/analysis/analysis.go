// Package analysis implements prionnvet, the stdlib-only reproducibility
// gate for the PRIONN reproduction. The paper's results hinge on seeded,
// numerically reproducible runs (§4's Cab tables are per-seed), so the
// checkers target bug classes that make a same-seed rerun print
// different numbers. Three have caught real bugs here: dropped errors on
// persist/IO paths, unsynchronized package-level state, and map order
// leaking into results. Two, wall time flowing into data and unjoined
// goroutines, have caught nothing yet; they stay while directives in
// the benchmark harness name them.
//
// That is the whole job. A checker stays only while it has caught
// something on real code; DESIGN.md §6 tables each one's yield over the
// repo's history (scripts/vet_yield.sh recounts it) and names the test
// that owns each deleted checker's hazard: seeding, generators shared
// across goroutines, exact float comparison and completion-order
// merging are pinned by same-seed and bitwise tests, and data races,
// deadlocks, goroutine and arena lifetimes and context propagation by
// the race detector and named tests in scripts/check.sh.
//
// Checkers are pure go/ast + go/types passes (no external deps, matching
// go.mod) over one shared def index (dataflow.go). Findings can be
// suppressed at the site with a justification:
//
//	//prionnvet:ignore <check>[,<check>...] -- <reason>
//
// The comment silences the named checks (or "all") on its own line and
// on the line directly below it, so it works both as a trailing comment
// and as a standalone line above the flagged statement. The " -- "
// separator and a non-empty reason are mandatory: a directive without
// one still suppresses, but RunAll reports it as an "ignore-reason"
// meta-finding, so an unjustified suppression cannot pass the gate. A
// directive naming a check that is not registered suppresses nothing
// and is reported as an "ignore-unknown" meta-finding.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one diagnostic produced by a checker. The JSON shape is
// the tool's machine-readable contract (documented in README.md):
// positions are both line/col and byte offsets so downstream tooling
// can slice sources without re-parsing, the end fields always equal the
// start (findings anchor at one token), and Doc carries the producing
// checker's one-line description.
type Finding struct {
	Check     string `json:"check"`
	Doc       string `json:"doc,omitempty"`
	Message   string `json:"message"`
	File      string `json:"file"`
	Line      int    `json:"line"`
	Col       int    `json:"col"`
	Offset    int    `json:"offset"`
	EndLine   int    `json:"endLine"`
	EndCol    int    `json:"endCol"`
	EndOffset int    `json:"endOffset"`
}

// String renders a finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Check, f.Message)
}

// SchemaVersion is the version of the machine-readable report shape.
// Version 1 was a bare sorted array of findings; version 2 wraps the
// array in a Report envelope. (It also defined an optional per-finding
// "why" array that nothing emits any more, so every document written
// today is still a valid version-2 document.) Consumers should reject
// versions they do not know.
const SchemaVersion = 2

// Report is the -json envelope: the schema version stamp plus the
// sorted findings. Findings is never null — an empty run serializes as
// an empty array, keeping `jq '.findings | length'` total.
type Report struct {
	SchemaVersion int       `json:"schemaVersion"`
	Findings      []Finding `json:"findings"`
}

// NewReport wraps findings in the current-version envelope.
func NewReport(findings []Finding) Report {
	if findings == nil {
		findings = []Finding{}
	}
	return Report{SchemaVersion: SchemaVersion, Findings: findings}
}

// Pass bundles everything a checker needs about one type-checked package.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	// funcs memoizes the dataflow analysis (see FuncInfos): every
	// checker running over the same Pass shares one def computation.
	funcs []*FuncInfo
}

// findingAt anchors a diagnostic at one token: the end fields stay in
// the JSON shape and always equal the start.
func findingAt(pos token.Position, check, message string) Finding {
	return Finding{
		Check:     check,
		Message:   message,
		File:      pos.Filename,
		Line:      pos.Line,
		Col:       pos.Column,
		Offset:    pos.Offset,
		EndLine:   pos.Line,
		EndCol:    pos.Column,
		EndOffset: pos.Offset,
	}
}

func (p *Pass) finding(check string, pos token.Pos, format string, args ...any) Finding {
	return findingAt(p.Fset.Position(pos), check, fmt.Sprintf(format, args...))
}

// Checker is one analysis pass.
type Checker interface {
	// Name is the kebab-case identifier used in reports and in
	// //prionnvet:ignore comments.
	Name() string
	// Doc is a one-line description for -list output.
	Doc() string
	Run(p *Pass) []Finding
}

// All returns every registered checker in stable order.
func All() []Checker {
	return []Checker{
		UncheckedErr{},
		MutablePkgVar{},
		MapOrder{},
		TimeDep{},
		NakedGoroutine{},
	}
}

// ByName returns the checker with the given name, or nil.
func ByName(name string) Checker {
	for _, c := range All() {
		if c.Name() == name {
			return c
		}
	}
	return nil
}

// RunAll runs the given checkers over a pass, drops suppressed findings,
// and returns the rest sorted by position. A nil checkers slice means
// All(). Independently of the checker subset, every //prionnvet:ignore
// directive is itself checked, and these meta-findings cannot be
// suppressed: one with no " -- reason" yields ignore-reason (a
// suppression without a written justification is a gate violation), and
// one naming a check that is neither "all" nor in the registry yields
// ignore-unknown (a misspelt or deleted name silences nothing, so the
// directive is not doing what its author believes).
func RunAll(p *Pass, checkers []Checker) []Finding {
	if checkers == nil {
		checkers = All()
	}
	dirs := collectDirectives(p)
	sup := suppressionsFrom(dirs)
	var out []Finding
	for _, c := range checkers {
		for _, f := range c.Run(p) {
			if sup.suppressed(f) {
				continue
			}
			f.Doc = c.Doc()
			out = append(out, f)
		}
	}
	for _, d := range dirs {
		if d.reason == "" {
			names := strings.Join(d.checks, ",")
			out = append(out, d.metaFinding("ignore-reason", ignoreReasonDoc,
				"suppression of %s has no justification; write //prionnvet:ignore %s -- <reason>", names, names))
		}
		var unknown []string
		for _, name := range d.checks {
			if name != "all" && ByName(name) == nil {
				unknown = append(unknown, name)
			}
		}
		if len(unknown) > 0 {
			out = append(out, d.metaFinding("ignore-unknown", ignoreUnknownDoc,
				"no registered check is named %s, so that name suppresses nothing; see prionnvet -list", strings.Join(unknown, ",")))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		if out[i].Col != out[j].Col {
			return out[i].Col < out[j].Col
		}
		if out[i].Check != out[j].Check {
			return out[i].Check < out[j].Check
		}
		return out[i].Message < out[j].Message
	})
	// One finding per (position, check): several rules of one checker
	// may derive the same diagnostic at the same spot. Distinct checks at
	// one position are all real; duplicates of one check are noise. The
	// slice is sorted, so duplicates are adjacent and the first (lexically
	// smallest message) witness is kept.
	dedup := out[:0]
	for _, f := range out {
		if n := len(dedup); n > 0 {
			prev := dedup[n-1]
			if prev.File == f.File && prev.Line == f.Line && prev.Col == f.Col && prev.Check == f.Check {
				continue
			}
		}
		dedup = append(dedup, f)
	}
	return dedup
}

// ignorePrefix is the suppression marker. The directive form is
//
//	//prionnvet:ignore check1,check2 -- reason
//
// with no space before "prionnvet" (matching the //go: directive
// convention). The " -- " separator divides the check list from the
// mandatory justification; a directive without one still suppresses
// (so legacy comments do not un-silence old findings in one step) but
// is reported by the ignore-reason meta-finding.
const ignorePrefix = "prionnvet:ignore"

// ignoreReasonDoc documents the meta-finding emitted by RunAll for
// directives missing a " -- reason" justification.
const ignoreReasonDoc = "every //prionnvet:ignore must carry a written justification after ' -- '"

// ignoreUnknownDoc documents the meta-finding emitted by RunAll for
// directives naming a check the registry does not have.
const ignoreUnknownDoc = "every //prionnvet:ignore must name a registered check or 'all'"

// directive is one parsed //prionnvet:ignore comment.
type directive struct {
	checks []string       // named checks, or ["all"]
	reason string         // text after " -- ", "" when absent
	pos    token.Position // position of the comment itself
}

// metaFinding reports a defect of the directive itself, anchored at the
// comment.
func (d directive) metaFinding(check, doc, format string, args ...any) Finding {
	f := findingAt(d.pos, check, fmt.Sprintf(format, args...))
	f.Doc = doc
	return f
}

// collectDirectives parses every //prionnvet:ignore comment in the pass.
func collectDirectives(p *Pass) []directive {
	var dirs []directive
	for _, file := range p.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, ignorePrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, ignorePrefix))
				var reason string
				if head, tail, found := strings.Cut(rest, "--"); found {
					rest = strings.TrimSpace(head)
					reason = strings.TrimSpace(tail)
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					// Bare ignore with no check list: treat as "all" so a
					// malformed directive fails loudly in review, not
					// silently.
					fields = []string{"all"}
				}
				var checks []string
				for _, name := range strings.Split(fields[0], ",") {
					if name = strings.TrimSpace(name); name != "" {
						checks = append(checks, name)
					}
				}
				dirs = append(dirs, directive{
					checks: checks,
					reason: reason,
					pos:    p.Fset.Position(c.Pos()),
				})
			}
		}
	}
	return dirs
}

// suppressions maps file -> line -> set of suppressed check names.
// The special name "all" suppresses every check.
type suppressions map[string]map[int]map[string]bool

func (s suppressions) suppressed(f Finding) bool {
	lines := s[f.File]
	if lines == nil {
		return false
	}
	// A directive covers its own line (trailing comment) and the next
	// line (standalone comment above the statement).
	for _, line := range []int{f.Line, f.Line - 1} {
		checks := lines[line]
		if checks == nil {
			continue
		}
		if checks["all"] || checks[f.Check] {
			return true
		}
	}
	return false
}

func suppressionsFrom(dirs []directive) suppressions {
	sup := suppressions{}
	for _, d := range dirs {
		lines := sup[d.pos.Filename]
		if lines == nil {
			lines = map[int]map[string]bool{}
			sup[d.pos.Filename] = lines
		}
		checks := lines[d.pos.Line]
		if checks == nil {
			checks = map[string]bool{}
			lines[d.pos.Line] = checks
		}
		for _, name := range d.checks {
			checks[name] = true
		}
	}
	return sup
}

// pkgNameOf resolves an identifier to the imported package it names, or
// nil. Used by checkers to recognize qualified references like time.Now
// regardless of import aliasing.
func pkgNameOf(info *types.Info, id *ast.Ident) *types.PkgName {
	if obj, ok := info.Uses[id]; ok {
		if pn, ok := obj.(*types.PkgName); ok {
			return pn
		}
	}
	return nil
}

// qualifiedCall reports the package path and function name of a call to
// a package-level function (e.g. "time", "Now"), or ok=false.
func qualifiedCall(info *types.Info, call *ast.CallExpr) (pkgPath, name string, ok bool) {
	sel, okSel := call.Fun.(*ast.SelectorExpr)
	if !okSel {
		return "", "", false
	}
	id, okID := sel.X.(*ast.Ident)
	if !okID {
		return "", "", false
	}
	pn := pkgNameOf(info, id)
	if pn == nil {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}
