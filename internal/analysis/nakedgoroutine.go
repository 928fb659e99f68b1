package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NakedGoroutine flags `go` statements in functions with no visible
// join: no sync.WaitGroup Wait, no channel receive, no select. A fire-
// and-forget goroutine in the tensor/sched parallel paths can outlive
// the kernel that spawned it and race the next operation on the same
// buffers; every launch must be paired with a join in the same function
// (as tensor.For does) or carry a justified suppression.
//
// The join detection is a function-scoped heuristic: evidence anywhere
// in the innermost enclosing function body counts for every goroutine
// launched there. The dataflow engine adds the caller-joins cases: a
// goroutine that signals through a *sync.WaitGroup parameter, or
// through a channel that is a parameter or is returned to the caller,
// hands its join to the caller and is not naked.
type NakedGoroutine struct{}

func (NakedGoroutine) Name() string { return "naked-goroutine" }
func (NakedGoroutine) Doc() string {
	return "flags go statements with no WaitGroup/channel join in the same function"
}

func (c NakedGoroutine) Run(p *Pass) []Finding {
	var out []Finding
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body == nil {
				return true
			}
			joined := hasJoin(p, body)
			for _, g := range directGoStmts(body) {
				if !joined && !joinEscapes(p, g) {
					out = append(out, p.finding(c.Name(), g.Pos(),
						"goroutine has no join (WaitGroup Wait, channel receive, or select) in the enclosing function"))
				}
			}
			return true
		})
	}
	return out
}

// directGoStmts returns the go statements whose innermost enclosing
// function is the one owning body (i.e. not those inside nested
// function literals, which are attributed to the literal).
func directGoStmts(body *ast.BlockStmt) []*ast.GoStmt {
	var gos []*ast.GoStmt
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			return false // its go statements belong to the literal
		case *ast.GoStmt:
			gos = append(gos, s)
			// Still descend into the launched call's arguments, but the
			// launched FuncLit itself is cut off above.
		}
		return true
	})
	return gos
}

// hasJoin reports whether body contains any plausible join point: a
// .Wait() call, a channel receive, a range over a channel, or a select.
func hasJoin(p *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch e := n.(type) {
		case *ast.CallExpr:
			if sel, ok := e.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
				found = true
			}
		case *ast.UnaryExpr:
			if e.Op == token.ARROW {
				found = true
			}
		case *ast.SelectStmt:
			found = true
		case *ast.RangeStmt:
			if isChanType(p, e.X) {
				found = true
			}
		}
		return !found
	})
	return found
}

// joinEscapes reports whether the goroutine's join is visibly handed to
// the caller: the launched code references a *sync.WaitGroup that is a
// parameter (the caller Waits), or a channel that is a parameter or is
// returned from the function (the caller receives).
func joinEscapes(p *Pass, g *ast.GoStmt) bool {
	fi := p.FuncInfoAt(g.Pos())
	if fi == nil {
		return false
	}
	// Channels returned to the caller.
	returned := map[*types.Var]bool{}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			if v := fi.LocalVar(res); v != nil && isChan(v.Type()) {
				returned[v] = true
			}
		}
		return true
	})

	escapes := false
	ast.Inspect(g, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := p.Info.Uses[id].(*types.Var)
		if !ok || obj == nil {
			return true
		}
		switch {
		case fi.ParamObjs[obj] && (isWaitGroup(obj.Type()) || isChan(obj.Type())):
			escapes = true
		case returned[obj]:
			escapes = true
		}
		return !escapes
	})
	return escapes
}

// isWaitGroup reports whether t is sync.WaitGroup, possibly behind a
// pointer.
func isWaitGroup(t types.Type) bool {
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
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}

func isChan(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

func isChanType(p *Pass, e ast.Expr) bool {
	t := p.Info.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}
