package analysis

// SSA-lite intra-procedural dataflow: def chains computed directly over
// go/ast + go/types, with no x/tools dependency. The engine
// deliberately stops short of full SSA — no phi nodes, no control-flow
// graph — because the checkers built on it ask one kind of question
// that positional def chains answer precisely enough: "does this value
// derive from a map-ranged key?", "does it derive from time.Now?".
// Where control flow would matter (defs in sibling branches), the
// queries are conservative: they union over all definitions of a
// variable.
//
// The unit of analysis is the top-level function declaration; function
// literals nested inside it share the same FuncInfo, because closures
// read and write the enclosing function's variables and the checkers
// need to see that flow (a map-ranged value a closure appends to the
// spawner's slice is still map-order's finding).

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FuncInfo holds def chains for one top-level function declaration,
// including everything inside nested function literals.
type FuncInfo struct {
	Pass *Pass
	Decl *ast.FuncDecl
	// Defs maps each function-local variable to the expressions that
	// define it, in source order: the right-hand side of an assignment
	// (for x += y, y; x's earlier defs are already in the list), the
	// ranged container for a range key or value, and nil for a
	// parameter, a var declared without a value, or x++/x--.
	Defs map[*types.Var][]ast.Expr
	// ParamObjs is the set of parameter/receiver/result objects of the
	// declaration and of every nested function literal. A value held in
	// a parameter was produced by a caller the engine cannot see.
	ParamObjs map[*types.Var]bool
}

// FuncInfos returns the dataflow view of every top-level function in
// the pass, memoized: checkers sharing a Pass share the analysis.
func (p *Pass) FuncInfos() []*FuncInfo {
	if p.funcs != nil {
		return p.funcs
	}
	var out []*FuncInfo
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			out = append(out, analyzeFunc(p, fn))
		}
	}
	if out == nil {
		out = []*FuncInfo{}
	}
	p.funcs = out
	return out
}

// FuncInfoAt returns the FuncInfo whose declaration contains pos, or
// nil for positions outside any function body (package-level
// initializers).
func (p *Pass) FuncInfoAt(pos token.Pos) *FuncInfo {
	for _, fi := range p.FuncInfos() {
		if fi.Decl.Pos() <= pos && pos <= fi.Decl.End() {
			return fi
		}
	}
	return nil
}

// analyzeFunc builds the def chains for one declaration.
func analyzeFunc(p *Pass, fn *ast.FuncDecl) *FuncInfo {
	fi := &FuncInfo{
		Pass:      p,
		Decl:      fn,
		Defs:      map[*types.Var][]ast.Expr{},
		ParamObjs: map[*types.Var]bool{},
	}
	addDef := func(id *ast.Ident, rhs ast.Expr) {
		if obj := fi.localVarOfDef(id); obj != nil {
			fi.Defs[obj] = append(fi.Defs[obj], rhs)
		}
	}
	declParams := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj, ok := p.Info.Defs[name].(*types.Var); ok && obj != nil {
					fi.ParamObjs[obj] = true
					fi.Defs[obj] = append(fi.Defs[obj], nil)
				}
			}
		}
	}
	declParams(fn.Recv)
	declParams(fn.Type.Params)
	declParams(fn.Type.Results)

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			declParams(s.Type.Params)
			declParams(s.Type.Results)
		case *ast.AssignStmt:
			if s.Tok != token.ASSIGN && s.Tok != token.DEFINE { // +=, -=, *=, /=, …
				if id, ok := s.Lhs[0].(*ast.Ident); ok {
					addDef(id, s.Rhs[0])
				}
				return true
			}
			for i, lhs := range s.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				rhs := s.Rhs[0] // x, y := f()
				if len(s.Rhs) == len(s.Lhs) {
					rhs = s.Rhs[i]
				}
				addDef(id, rhs)
			}
		case *ast.IncDecStmt:
			if id, ok := s.X.(*ast.Ident); ok {
				addDef(id, nil)
			}
		case *ast.ValueSpec:
			for i, name := range s.Names {
				var rhs ast.Expr
				if len(s.Values) == len(s.Names) {
					rhs = s.Values[i]
				} else if len(s.Values) > 0 {
					rhs = s.Values[0] // var x, y = f()
				}
				addDef(name, rhs)
			}
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{s.Key, s.Value} {
				if id, ok := e.(*ast.Ident); ok {
					addDef(id, s.X)
				}
			}
		}
		return true
	})
	return fi
}

// isLocal reports whether obj is declared within the function (params
// included, package-level variables excluded).
func (fi *FuncInfo) isLocal(obj *types.Var) bool {
	return obj != nil && !obj.IsField() &&
		fi.Decl.Pos() <= obj.Pos() && obj.Pos() <= fi.Decl.End()
}

// localVarOfDef resolves a defining identifier (:= or = LHS) to its
// local variable object.
func (fi *FuncInfo) localVarOfDef(id *ast.Ident) *types.Var {
	if id.Name == "_" {
		return nil
	}
	if obj, ok := fi.Pass.Info.Defs[id].(*types.Var); ok && fi.isLocal(obj) {
		return obj
	}
	if obj, ok := fi.Pass.Info.Uses[id].(*types.Var); ok && fi.isLocal(obj) {
		return obj
	}
	return nil
}

// LocalVar resolves an expression to the function-local variable it
// names, unwrapping parentheses; nil if it is not a plain local.
func (fi *FuncInfo) LocalVar(e ast.Expr) *types.Var {
	for {
		pe, ok := e.(*ast.ParenExpr)
		if !ok {
			break
		}
		e = pe.X
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if obj, ok := fi.Pass.Info.Uses[id].(*types.Var); ok && fi.isLocal(obj) {
		return obj
	}
	return nil
}

// FlowsFrom reports whether the value of root may derive from a node
// satisfying pred, following local def chains backwards through
// assignments, compound assignments, and range statements. pred is
// offered every expression in the transitive producing set. Each
// variable is resolved at most once, making the walk linear and
// cycle-safe.
func (fi *FuncInfo) FlowsFrom(root ast.Expr, pred func(n ast.Node) bool) bool {
	seen := map[*types.Var]bool{}
	found := false
	var visit func(n ast.Node)
	visit = func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if found || n == nil {
				return false
			}
			if pred(n) {
				found = true
				return false
			}
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj, okUse := fi.Pass.Info.Uses[id].(*types.Var)
			if !okUse || !fi.isLocal(obj) || seen[obj] {
				return true
			}
			seen[obj] = true
			for _, rhs := range fi.Defs[obj] {
				if found {
					break
				}
				if rhs != nil {
					visit(rhs)
				}
			}
			return !found
		})
	}
	visit(root)
	return found
}
