package analysis

import (
	"go/ast"
	"go/types"
)

// UncheckedErr flags calls whose error result is silently dropped — as
// an expression statement or behind go/defer. The persist and trace IO
// paths must not swallow errors: a short write during
// Predictor.SaveFile that vanishes means a deployment silently restarts
// cold. An explicit `_ = f()` assignment is allowed as a visible,
// deliberate discard.
//
// Allowlisted as never-meaningfully-failing: fmt.Print/Printf/Println,
// fmt.Fprint* to os.Stdout/os.Stderr, and the Write* methods of
// strings.Builder and bytes.Buffer (documented to return nil errors).
type UncheckedErr struct{}

func (UncheckedErr) Name() string { return "unchecked-err" }
func (UncheckedErr) Doc() string {
	return "flags dropped error returns in statements and go/defer calls"
}

func (c UncheckedErr) Run(p *Pass) []Finding {
	var out []Finding
	check := func(call *ast.CallExpr, how string) {
		if call == nil || !returnsError(p.Info, call) || errAllowlisted(p, call) {
			return
		}
		out = append(out, p.finding(c.Name(), call.Pos(),
			"%s of %s drops its error result; handle it or discard explicitly with _ =", how, calleeName(call)))
	}
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.ExprStmt:
				if call, ok := s.X.(*ast.CallExpr); ok {
					check(call, "call")
				}
			case *ast.DeferStmt:
				check(s.Call, "defer")
			case *ast.GoStmt:
				check(s.Call, "go")
			}
			return true
		})
	}
	return out
}

// returnsError reports whether the call's results include an error.
// Type conversions and builtin calls never do.
func returnsError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	if ok && tv.IsType() {
		return false // conversion
	}
	t := info.TypeOf(call)
	if t == nil {
		return false
	}
	switch rt := t.(type) {
	case *types.Tuple:
		for i := 0; i < rt.Len(); i++ {
			if isErrorType(rt.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isErrorType(t)
	}
}

var errorType = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool { return types.Identical(t, errorType) }

// errAllowlisted reports whether the dropped error is conventionally
// meaningless (stdout printing, in-memory buffer writes).
func errAllowlisted(p *Pass, call *ast.CallExpr) bool {
	if pkg, name, ok := qualifiedCall(p.Info, call); ok && pkg == "fmt" {
		switch name {
		case "Print", "Printf", "Println":
			return true
		case "Fprint", "Fprintf", "Fprintln":
			return len(call.Args) > 0 &&
				(isStdStream(p, call.Args[0]) || isMemWriter(p.Info.TypeOf(call.Args[0])))
		}
	}
	// Methods on in-memory writers whose errors are documented nil.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if s, ok := p.Info.Selections[sel]; ok && isMemWriter(s.Recv()) {
			return true
		}
	}
	return false
}

// isMemWriter reports whether t is strings.Builder or bytes.Buffer
// (possibly behind a pointer) — writers whose errors are documented to
// always be nil.
func isMemWriter(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() + "." + obj.Name() {
	case "strings.Builder", "bytes.Buffer":
		return true
	}
	return false
}

// isStdStream reports whether e is os.Stdout or os.Stderr.
func isStdStream(p *Pass, e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Stdout" && sel.Sel.Name != "Stderr") {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn := pkgNameOf(p.Info, id)
	return pn != nil && pn.Imported().Path() == "os"
}

// calleeName renders the called expression for the message.
func calleeName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		if id, ok := f.X.(*ast.Ident); ok {
			return id.Name + "." + f.Sel.Name
		}
		return f.Sel.Name
	default:
		return "function"
	}
}
