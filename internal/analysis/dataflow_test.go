package analysis

import (
	"go/ast"
	"go/types"
	"slices"
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

	// b := a + 2, then b = v in the range body, then b += 3: each def
	// records its producing expression, in source order.
	b := varByName(t, fi, "b")
	var got []string
	for _, rhs := range fi.Defs[b] {
		got = append(got, types.ExprString(rhs))
	}
	if want := []string{"a + 2", "v", "3"}; !slices.Equal(got, want) {
		t.Errorf("defs of b = %q, want %q", got, want)
	}

	// Range key and value are each defined once, by the ranged map.
	for _, name := range []string{"k", "v"} {
		defs := fi.Defs[varByName(t, fi, name)]
		if len(defs) != 1 || types.ExprString(defs[0]) != "m" {
			t.Errorf("%s should have one def, the ranged map m; got %d", name, len(defs))
		}
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
