// Package analysis implements prionnvet, a stdlib-only static-analysis
// pass for the PRIONN reproduction. The paper's results hinge on seeded,
// numerically reproducible runs (§4's Cab tables are per-seed), so the
// checkers target the bug classes that silently break reproducibility in
// a Go codebase with hand-rolled parallel kernels: unseeded randomness,
// exact float comparison, dropped errors on persist/IO paths, unjoined
// goroutines, and unsynchronized package-level state.
//
// Checkers are pure go/ast + go/types passes (no external deps, matching
// go.mod). Findings can be suppressed at the site with a justification:
//
//	//prionnvet:ignore <check>[,<check>...] -- <reason>
//
// The comment silences the named checks (or "all") on its own line and
// on the line directly below it, so it works both as a trailing comment
// and as a standalone line above the flagged statement. The " -- "
// separator and a non-empty reason are mandatory: a directive without
// one still suppresses, but RunAll reports it as an "ignore-reason"
// meta-finding, so an unjustified suppression cannot pass the gate.
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
// start and end positions are both line/col and byte offsets so
// downstream tooling can slice sources without re-parsing, and Doc
// carries the producing checker's one-line description.
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
	// Why carries the step-by-step derivation of interprocedural
	// findings — the lock-order-cycle acquisition chain, one
	// human-readable step per element. The CLI renders the steps as
	// indented "why:" lines under the finding; -json emits them as an
	// array (schemaVersion 2).
	Why []string `json:"why,omitempty"`
}

// String renders a finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Check, f.Message)
}

// SchemaVersion is the version of the machine-readable report shape.
// Version 1 was a bare sorted array of findings; version 2 wraps the
// array in a Report envelope and adds the per-finding "why" chain
// (lock-order-cycle acquisition steps). Consumers should reject
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
	// checker running over the same Pass shares one def-use computation.
	funcs []*FuncInfo
	// cg memoizes the interprocedural call graph (see CallGraph).
	cg *CallGraph
	// lf memoizes the lockset analysis (see LockFacts).
	lf *LockFacts
}

func (p *Pass) finding(check string, pos token.Pos, format string, args ...any) Finding {
	return p.rangeFinding(check, pos, pos, format, args...)
}

// rangeFinding is finding with an explicit end position, for checkers
// that can point at a whole expression rather than a single token.
func (p *Pass) rangeFinding(check string, pos, end token.Pos, format string, args ...any) Finding {
	position := p.Fset.Position(pos)
	endPos := position
	if end.IsValid() && end != pos {
		endPos = p.Fset.Position(end)
	}
	return Finding{
		Check:     check,
		Message:   fmt.Sprintf(format, args...),
		File:      position.Filename,
		Line:      position.Line,
		Col:       position.Column,
		Offset:    position.Offset,
		EndLine:   endPos.Line,
		EndCol:    endPos.Column,
		EndOffset: endPos.Offset,
	}
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
		UnseededRand{},
		FloatEq{},
		UncheckedErr{},
		NakedGoroutine{},
		BarePanicGoroutine{},
		LoopCapture{},
		MutablePkgVar{},
		MapOrder{},
		SeedFlow{},
		TimeDep{},
		NondetSelect{},
		CtxPropagation{},
		ArenaLeak{},
		LockHeldIO{},
		AtomicPlainMix{},
		GuardedField{},
		LockOrderCycle{},
		GoroutineLifecycle{},
		WaitGroupMisuse{},
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
// directive with no " -- reason" yields an ignore-reason meta-finding:
// a suppression without a written justification is itself a gate
// violation, and it cannot suppress its own report.
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
		if d.reason != "" {
			continue
		}
		out = append(out, Finding{
			Check:     "ignore-reason",
			Doc:       ignoreReasonDoc,
			Message:   fmt.Sprintf("suppression of %s has no justification; write //prionnvet:ignore %s -- <reason>", strings.Join(d.checks, ","), strings.Join(d.checks, ",")),
			File:      d.pos.Filename,
			Line:      d.pos.Line,
			Col:       d.pos.Column,
			Offset:    d.pos.Offset,
			EndLine:   d.pos.Line,
			EndCol:    d.pos.Column,
			EndOffset: d.pos.Offset,
		})
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
	// One finding per (position, check): several rules of one checker —
	// or interface fan-out visiting one call site repeatedly — may
	// derive the same diagnostic at the same spot (a launch flagged by
	// two lifecycle proofs, say). Distinct checks at one position are
	// all real; duplicates of one check are noise. The slice is sorted,
	// so duplicates are adjacent and the first (lexically smallest
	// message) witness is kept.
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

// directive is one parsed //prionnvet:ignore comment.
type directive struct {
	checks []string       // named checks, or ["all"]
	reason string         // text after " -- ", "" when absent
	pos    token.Position // position of the comment itself
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
// nil. Used by checkers to recognize qualified references like rand.Intn
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
// a package-level function (e.g. "math/rand", "Intn"), or ok=false.
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
