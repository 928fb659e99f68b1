package analysis

import (
	"go/ast"
	"go/types"
	"testing"
)

// findInfo returns the FuncInfo for the named function in the dataflow
// fixture.
func findInfo(t *testing.T, p *Pass, name string) *FuncInfo {
	t.Helper()
	for _, fi := range p.FuncInfos() {
		if fi.Decl.Name.Name == name {
			return fi
		}
	}
	t.Fatalf("no FuncInfo for %s", name)
	return nil
}

// varByName resolves a local variable of the function by name.
func varByName(t *testing.T, fi *FuncInfo, name string) *types.Var {
	t.Helper()
	for obj := range fi.Defs {
		if obj.Name() == name {
			return obj
		}
	}
	t.Fatalf("no local %q in %s", name, fi.Decl.Name.Name)
	return nil
}

func TestDefUseChains(t *testing.T) {
	loader, pkg := loadFixture(t, "dataflow")
	pass := pkg.Pass(loader.Fset)
	fi := findInfo(t, pass, "chain")

	b := varByName(t, fi, "b")
	defs := fi.Defs[b]
	if len(defs) != 3 {
		t.Fatalf("defs of b = %d, want 3 (:=, range-body =, +=)", len(defs))
	}
	if defs[0].Kind != DefAssign || defs[1].Kind != DefAssign || defs[2].Kind != DefCompound {
		t.Errorf("def kinds of b = %v %v %v, want DefAssign DefAssign DefCompound",
			defs[0].Kind, defs[1].Kind, defs[2].Kind)
	}
	// b is read twice: strconv.Itoa(b), and b += 3 (a compound
	// assignment reads the old value). The pure store b = v does not
	// count.
	if got := len(fi.Uses[b]); got != 2 {
		t.Errorf("uses of b = %d, want 2", got)
	}

	v := varByName(t, fi, "v")
	if len(fi.Defs[v]) != 1 || fi.Defs[v][0].Kind != DefRangeValue {
		t.Errorf("v should have one DefRangeValue def, got %+v", fi.Defs[v])
	}
	k := varByName(t, fi, "k")
	if len(fi.Defs[k]) != 1 || fi.Defs[k][0].Kind != DefRangeKey {
		t.Errorf("k should have one DefRangeKey def, got %+v", fi.Defs[k])
	}
}

func TestParamObjs(t *testing.T) {
	loader, pkg := loadFixture(t, "dataflow")
	pass := pkg.Pass(loader.Fset)
	fi := findInfo(t, pass, "params")

	for _, name := range []string{"x", "ys", "out"} {
		if !fi.ParamObjs[varByName(t, fi, name)] {
			t.Errorf("%s should be in ParamObjs", name)
		}
	}
	y := varByName(t, fi, "y")
	if fi.ParamObjs[y] {
		t.Errorf("range variable y must not be in ParamObjs")
	}
}

func TestClosureSharesFuncInfo(t *testing.T) {
	loader, pkg := loadFixture(t, "dataflow")
	pass := pkg.Pass(loader.Fset)
	fi := findInfo(t, pass, "closure")

	total := varByName(t, fi, "total")
	// total := 0 outside, total += d inside the literal: both defs land
	// in the same FuncInfo because closures share the variable.
	if got := len(fi.Defs[total]); got != 2 {
		t.Errorf("defs of total = %d, want 2 (outer := and closure +=)", got)
	}
	d := varByName(t, fi, "d")
	if !fi.ParamObjs[d] {
		t.Errorf("closure parameter d should be in ParamObjs")
	}
}

// returnExpr fetches the i-th result of the last return in fn.
func returnExpr(fi *FuncInfo, i int) ast.Expr {
	var res ast.Expr
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if r, ok := n.(*ast.ReturnStmt); ok && len(r.Results) > i {
			res = r.Results[i]
		}
		return true
	})
	return res
}

func TestFlowsFrom(t *testing.T) {
	loader, pkg := loadFixture(t, "dataflow")
	pass := pkg.Pass(loader.Fset)
	fi := findInfo(t, pass, "chain")

	ret := returnExpr(fi, 0) // s
	if ret == nil {
		t.Fatal("no return expression in chain")
	}
	isIntLit := func(n ast.Node) bool {
		bl, ok := n.(*ast.BasicLit)
		return ok && bl.Value == "1"
	}
	// s <- strconv.Itoa(b) <- b <- a + 2 <- a <- 1: transitive.
	if !fi.FlowsFrom(ret, isIntLit) {
		t.Errorf("s should flow from the literal 1 via a and b")
	}
	// s must NOT flow from the map range (b's range def happens after s
	// is built, but positional def-use is flow-insensitive by design, so
	// check a predicate that never matches instead: the map m feeds b,
	// hence s under union-over-defs semantics).
	neverMatches := func(n ast.Node) bool {
		bl, ok := n.(*ast.BasicLit)
		return ok && bl.Value == `"nope"`
	}
	if fi.FlowsFrom(ret, neverMatches) {
		t.Errorf("s must not flow from a literal that is not in the fixture")
	}
}

func TestUsedBetween(t *testing.T) {
	loader, pkg := loadFixture(t, "dataflow")
	pass := pkg.Pass(loader.Fset)
	fi := findInfo(t, pass, "chain")

	b := varByName(t, fi, "b")
	defs := fi.Defs[b]
	// b is read (by strconv.Itoa) between its first def and its second.
	if !fi.UsedBetween(b, defs[0].Stmt.End(), defs[1].Stmt.Pos()) {
		t.Errorf("b should be used between def 0 and def 1")
	}
	// ...but not between the second and third defs.
	if fi.UsedBetween(b, defs[1].Stmt.End(), defs[2].Stmt.Pos()) {
		t.Errorf("b should not be used between def 1 and def 2")
	}
}

func TestFuncInfoAt(t *testing.T) {
	loader, pkg := loadFixture(t, "dataflow")
	pass := pkg.Pass(loader.Fset)
	fi := findInfo(t, pass, "params")
	if got := pass.FuncInfoAt(fi.Decl.Body.Pos()); got != fi {
		t.Errorf("FuncInfoAt(body of params) = %v, want the params FuncInfo", got)
	}
	if got := pass.FuncInfoAt(0); got != nil {
		t.Errorf("FuncInfoAt(NoPos) = %v, want nil", got)
	}
}

func TestFuncInfosMemoized(t *testing.T) {
	loader, pkg := loadFixture(t, "dataflow")
	pass := pkg.Pass(loader.Fset)
	a := pass.FuncInfos()
	b := pass.FuncInfos()
	if len(a) == 0 || len(a) != len(b) || a[0] != b[0] {
		t.Errorf("FuncInfos should memoize and return identical slices")
	}
}
