package analysis

// SSA-lite intra-procedural dataflow: def-use chains and reaching
// definitions computed directly over go/ast + go/types, with no
// x/tools dependency. The engine deliberately stops short of full SSA —
// no phi nodes, no control-flow graph — because the checkers built on
// it ask questions that positional def-use chains answer precisely
// enough: "does this value derive from a map-ranged key?", "is this
// error overwritten before it is read?", "does this seed flow from
// time.Now?". Where control flow would matter (defs in sibling
// branches), the queries are conservative: dead-store detection only
// fires for consecutive definitions in the same block, and taint
// queries union over all definitions of a variable.
//
// The unit of analysis is the top-level function declaration; function
// literals nested inside it share the same FuncInfo, because closures
// read and write the enclosing function's variables and the checkers
// need to see that flow (a goroutine capturing the spawner's *rand.Rand
// is exactly the bug class seed-flow hunts).

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DefKind classifies how a definition produces its value.
type DefKind int

const (
	// DefAssign is x = rhs or x := rhs (including multi-value forms,
	// where RHS is the producing call).
	DefAssign DefKind = iota
	// DefCompound is x += rhs, x *= rhs, x++, …: the new value is
	// computed from the previous one.
	DefCompound
	// DefZero is var x T with no initializer.
	DefZero
	// DefParam is a parameter, receiver, or named result.
	DefParam
	// DefRangeKey is the key variable of a range statement; RHS is the
	// ranged container.
	DefRangeKey
	// DefRangeValue is the value variable of a range statement; RHS is
	// the ranged container.
	DefRangeValue
)

// Def is one definition site of a local variable.
type Def struct {
	Ident *ast.Ident // the defining occurrence
	RHS   ast.Expr   // producing expression; nil for DefZero/DefParam; the ranged container for range kinds
	Kind  DefKind
	Stmt  ast.Node       // the defining statement (AssignStmt, IncDecStmt, RangeStmt, ValueSpec, Field)
	Block *ast.BlockStmt // innermost enclosing block; nil for params
}

// FuncInfo holds def-use chains for one top-level function declaration,
// including everything inside nested function literals.
type FuncInfo struct {
	Pass *Pass
	Decl *ast.FuncDecl
	// Defs maps each function-local variable to its definition sites in
	// source order.
	Defs map[*types.Var][]Def
	// Uses maps each function-local variable to its read occurrences in
	// source order. Pure stores (the x of x = v) are excluded; compound
	// assignments and ++/-- count as both a use and a def.
	Uses map[*types.Var][]*ast.Ident
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

// analyzeFunc builds the def-use chains for one declaration.
func analyzeFunc(p *Pass, fn *ast.FuncDecl) *FuncInfo {
	fi := &FuncInfo{
		Pass:      p,
		Decl:      fn,
		Defs:      map[*types.Var][]Def{},
		Uses:      map[*types.Var][]*ast.Ident{},
		ParamObjs: map[*types.Var]bool{},
	}
	stores := map[*ast.Ident]bool{} // pure-store occurrences, excluded from Uses

	addDef := func(id *ast.Ident, d Def) {
		obj := fi.localVarOfDef(id)
		if obj == nil {
			return
		}
		d.Ident = id
		fi.Defs[obj] = append(fi.Defs[obj], d)
	}

	declParams := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj, ok := p.Info.Defs[name].(*types.Var); ok && obj != nil {
					fi.ParamObjs[obj] = true
					fi.Defs[obj] = append(fi.Defs[obj], Def{Ident: name, Kind: DefParam, Stmt: f})
				}
			}
		}
	}
	declParams(fn.Recv)
	declParams(fn.Type.Params)
	declParams(fn.Type.Results)

	// walk records definitions, tracking the innermost enclosing block.
	var walk func(n ast.Node, blk *ast.BlockStmt)
	walk = func(n ast.Node, blk *ast.BlockStmt) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.BlockStmt:
				for _, st := range s.List {
					walk(st, s)
				}
				return false
			case *ast.FuncLit:
				declParams(s.Type.Params)
				declParams(s.Type.Results)
				walk(s.Body, blk)
				return false
			case *ast.AssignStmt:
				switch s.Tok {
				case token.ASSIGN, token.DEFINE:
					for i, lhs := range s.Lhs {
						id, ok := lhs.(*ast.Ident)
						if !ok {
							continue
						}
						// Pure store either way: a reused variable in a :=
						// resolves through Info.Uses, but the occurrence
						// still only writes.
						stores[id] = true
						rhs := s.Rhs[0]
						if len(s.Rhs) == len(s.Lhs) {
							rhs = s.Rhs[i]
						}
						addDef(id, Def{RHS: rhs, Kind: DefAssign, Stmt: s, Block: blk})
					}
				default: // +=, -=, *=, /=, …
					if id, ok := s.Lhs[0].(*ast.Ident); ok {
						addDef(id, Def{RHS: s.Rhs[0], Kind: DefCompound, Stmt: s, Block: blk})
					}
				}
			case *ast.IncDecStmt:
				if id, ok := s.X.(*ast.Ident); ok {
					addDef(id, Def{Kind: DefCompound, Stmt: s, Block: blk})
				}
			case *ast.ValueSpec:
				for i, name := range s.Names {
					d := Def{Kind: DefZero, Stmt: s, Block: blk}
					if len(s.Values) > 0 {
						d.Kind = DefAssign
						d.RHS = s.Values[0]
						if len(s.Values) == len(s.Names) {
							d.RHS = s.Values[i]
						}
					}
					addDef(name, d)
				}
			case *ast.RangeStmt:
				if id, ok := s.Key.(*ast.Ident); ok {
					if s.Tok == token.ASSIGN {
						stores[id] = true
					}
					addDef(id, Def{RHS: s.X, Kind: DefRangeKey, Stmt: s, Block: blk})
				}
				if id, ok := s.Value.(*ast.Ident); ok {
					if s.Tok == token.ASSIGN {
						stores[id] = true
					}
					addDef(id, Def{RHS: s.X, Kind: DefRangeValue, Stmt: s, Block: blk})
				}
			}
			return true
		})
	}
	walk(fn.Body, fn.Body)

	// Uses: every read occurrence of a function-local variable.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || stores[id] {
			return true
		}
		if obj, ok := p.Info.Uses[id].(*types.Var); ok && fi.isLocal(obj) {
			fi.Uses[obj] = append(fi.Uses[obj], id)
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
// satisfying pred, following local def-use chains backwards through
// assignments, compound assignments, and range statements. pred is
// offered every expression in the transitive producing set and every
// defining statement on the chain (so callers can treat `x += y` itself
// as a computation). Each variable is resolved at most once, making the
// walk linear and cycle-safe.
func (fi *FuncInfo) FlowsFrom(root ast.Expr, pred func(n ast.Node) bool) bool {
	seen := map[*types.Var]bool{}
	found := false
	var visit func(n ast.Node)
	visit = func(n ast.Node) {
		if found || n == nil {
			return
		}
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
			for _, d := range fi.Defs[obj] {
				if found {
					break
				}
				if d.Stmt != nil && pred(d.Stmt) {
					found = true
					break
				}
				if d.RHS != nil {
					visit(d.RHS)
				}
			}
			return !found
		})
	}
	visit(root)
	return found
}

// UsedBetween reports whether v has a read occurrence strictly inside
// (after, before).
func (fi *FuncInfo) UsedBetween(v *types.Var, after, before token.Pos) bool {
	for _, u := range fi.Uses[v] {
		if u.Pos() > after && u.Pos() < before {
			return true
		}
	}
	return false
}
