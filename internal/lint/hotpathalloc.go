package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// HotPathAlloc checks functions annotated //apcm:hotpath — the core and
// bitset kernels, the posting ops — for constructs that
// heap-allocate or defeat the zero-alloc contract gated by alloc_test.go:
//
//   - function literals (closures capture and escape),
//   - defer statements (defer records allocate pre-Go1.22 loops and add
//     fixed overhead per call either way),
//   - address-taken composite literals and new() (heap escapes),
//   - interface conversions (box the concrete value),
//   - map iteration (hash-order walks, per-iteration overhead),
//   - appends to slices that provably start at capacity zero in the
//     function (every other append target — parameters, struct fields,
//     reslices, make results — is assumed presized by the caller).
//
// Arena sub-slicing is recognized as alloc-free: a capacity-clamped
// sub-slice carved from a slab (s := a.words[o:o+n:o+n+slack], or the
// result of a take-style helper) is a view into storage the arena
// already owns, so assigning one to a local and appending into its
// slack never reaches the allocator. Both shapes count as
// capacity-bearing below; appending past the clamp reallocates that
// one slice privately, which is the arena's documented maintenance
// policy (internal/core/arena.go), not a hot-path heap escape.
//
// The analyzer is intentionally intraprocedural: a hot-path function may
// call an unannotated slow-path helper (e.g. the kernelScratch.get miss
// path) that allocates; the boundary is the annotation.
var HotPathAlloc = &analysis.Analyzer{
	Name:     "hotpathalloc",
	Doc:      "reject allocating constructs in //apcm:hotpath functions",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runHotPathAlloc,
}

func runHotPathAlloc(pass *analysis.Pass) (interface{}, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fn := n.(*ast.FuncDecl)
		if fn.Body == nil || !hasDirective(fn.Doc, dirHotPath) {
			return
		}
		checkHotPathBody(pass, fn)
	})
	return nil, nil
}

func checkHotPathBody(pass *analysis.Pass, fn *ast.FuncDecl) {
	unpresized := collectUnpresized(pass, fn)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure in hot-path function %s (function literals capture and escape)", fn.Name.Name)
			return false // the literal itself is the finding; don't cascade
		case *ast.DeferStmt:
			pass.Reportf(n.Pos(), "defer in hot-path function %s", fn.Name.Name)
		case *ast.RangeStmt:
			if _, ok := types.Unalias(pass.TypesInfo.TypeOf(n.X)).Underlying().(*types.Map); ok {
				pass.Reportf(n.Pos(), "map iteration in hot-path function %s", fn.Name.Name)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "address-taken composite literal escapes to the heap in hot-path function %s", fn.Name.Name)
				}
			}
		case *ast.CallExpr:
			checkHotPathCall(pass, fn, n, unpresized)
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i < len(n.Lhs) {
					checkIfaceConv(pass, fn, pass.TypesInfo.TypeOf(n.Lhs[i]), rhs)
				}
			}
		case *ast.ReturnStmt:
			checkReturnConv(pass, fn, n)
		}
		return true
	})
}

// checkHotPathCall handles the call-shaped violations: new(), interface
// conversions (explicit and via arguments), and un-presized append.
func checkHotPathCall(pass *analysis.Pass, fn *ast.FuncDecl, call *ast.CallExpr, unpresized map[*types.Var]bool) {
	// Explicit conversion T(x)?
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			checkIfaceConv(pass, fn, tv.Type, call.Args[0])
		}
		return
	}
	switch funName(pass, call) {
	case "new":
		pass.Reportf(call.Pos(), "new() in hot-path function %s", fn.Name.Name)
		return
	case "append":
		if len(call.Args) > 0 {
			checkAppendPresized(pass, fn, call.Args[0], unpresized)
		}
		return
	case "make", "len", "cap", "copy", "delete", "panic", "print", "println", "min", "max", "clear":
		return
	}
	// Implicit interface conversions at argument positions.
	sig, _ := pass.TypesInfo.TypeOf(call.Fun).(*types.Signature)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				pt = params.At(params.Len() - 1).Type() // []T passed whole
			} else {
				pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		checkIfaceConv(pass, fn, pt, arg)
	}
}

// funName returns the name of a plain (builtin or package-level) callee,
// or "" for methods and complex callees.
func funName(pass *analysis.Pass, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	return id.Name
}

// checkIfaceConv reports src being converted to the interface type dst:
// boxing a concrete value allocates (except untyped nil and constants
// the compiler interns, which are rare enough to flag anyway — a hot
// path should not convert at all).
func checkIfaceConv(pass *analysis.Pass, fn *ast.FuncDecl, dst types.Type, src ast.Expr) {
	if dst == nil {
		return
	}
	if _, ok := types.Unalias(dst).Underlying().(*types.Interface); !ok {
		return
	}
	st := pass.TypesInfo.TypeOf(src)
	if st == nil {
		return
	}
	if _, ok := types.Unalias(st).Underlying().(*types.Interface); ok {
		return // interface-to-interface: no box
	}
	if b, ok := types.Unalias(st).(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	pass.Reportf(src.Pos(), "interface conversion boxes %s in hot-path function %s", st, fn.Name.Name)
}

// checkReturnConv flags concrete values returned as interface results.
func checkReturnConv(pass *analysis.Pass, fn *ast.FuncDecl, ret *ast.ReturnStmt) {
	results := fn.Type.Results
	if results == nil {
		return
	}
	var resultTypes []types.Type
	for _, f := range results.List {
		n := len(f.Names)
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			resultTypes = append(resultTypes, pass.TypesInfo.TypeOf(f.Type))
		}
	}
	if len(ret.Results) != len(resultTypes) {
		return // bare return or single multi-value call
	}
	for i, r := range ret.Results {
		checkIfaceConv(pass, fn, resultTypes[i], r)
	}
}

// checkAppendPresized flags append whose destination is a local slice
// that provably starts at capacity zero: declared with no initialiser, a
// nil literal, or a composite literal, and never reassigned from a
// capacity-bearing expression (make, reslice, call, field, parameter).
func checkAppendPresized(pass *analysis.Pass, fn *ast.FuncDecl, dst ast.Expr, unpresized map[*types.Var]bool) {
	id, ok := ast.Unparen(dst).(*ast.Ident)
	if !ok {
		return // fields, index and slice expressions carry caller capacity
	}
	v, ok := pass.TypesInfo.ObjectOf(id).(*types.Var)
	if !ok {
		return
	}
	if unpresized[v] {
		pass.Reportf(dst.Pos(), "append to un-presized slice %s in hot-path function %s (declared empty and never given capacity)", id.Name, fn.Name.Name)
	}
}

// collectUnpresized returns the local slice variables of fn that start
// at capacity zero and are never assigned a capacity-bearing value.
// Parameters and named results always carry caller capacity.
func collectUnpresized(pass *analysis.Pass, fn *ast.FuncDecl) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	skip := make(map[*types.Var]bool)
	// declared marks when the ident is a declaration site (var, :=); a
	// plain = to a variable never declared in the body targets a
	// parameter, named result or captured outer variable, all of which
	// carry caller capacity and stay untracked.
	note := func(id *ast.Ident, rhs ast.Expr, declared bool) {
		v, ok := pass.TypesInfo.ObjectOf(id).(*types.Var)
		if !ok || skip[v] {
			return
		}
		if !declared && !out[v] {
			return
		}
		if _, isSlice := types.Unalias(v.Type()).Underlying().(*types.Slice); !isSlice {
			return
		}
		if capacityBearing(pass, v, rhs) {
			skip[v] = true
			delete(out, v)
			return
		}
		out[v] = true
	}
	// Parameters and named results are never tracked; only Defs inside
	// the body are seen below, so nothing extra to exclude.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ValueSpec:
			for i, name := range n.Names {
				var rhs ast.Expr
				if i < len(n.Values) {
					rhs = n.Values[i]
				}
				note(name, rhs, true)
			}
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						note(id, n.Rhs[i], n.Tok == token.DEFINE)
					}
				}
			} else {
				// Multi-value call assignment: assume capacity-bearing.
				for _, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						if v, ok := pass.TypesInfo.ObjectOf(id).(*types.Var); ok {
							skip[v] = true
							delete(out, v)
						}
					}
				}
			}
		}
		return true
	})
	return out
}

// capacityBearing reports whether rhs gives v usable capacity: anything
// but a nil/empty start or a self-append. make, reslices, calls, fields
// and other variables all count.
func capacityBearing(pass *analysis.Pass, v *types.Var, rhs ast.Expr) bool {
	if rhs == nil {
		return false // var x []T
	}
	switch e := ast.Unparen(rhs).(type) {
	case *ast.Ident:
		return e.Name != "nil"
	case *ast.CompositeLit:
		return false // []T{...}: fixed backing, appends past it allocate
	case *ast.CallExpr:
		if funName(pass, e) == "append" && len(e.Args) > 0 {
			if id, ok := ast.Unparen(e.Args[0]).(*ast.Ident); ok {
				if pass.TypesInfo.ObjectOf(id) == v {
					return false // x = append(x, ...): still growing from zero
				}
			}
		}
		// Function results carry whatever capacity the callee gave
		// them — including the arena's carve helper, whose
		// capacity-clamped slab views are the whole point of the
		// arena. make and conversions likewise.
		return true
	case *ast.SliceExpr:
		// Reslices and slab sub-slices: s := a.words[o:o+n:o+n+slack]
		// is a view into arena-owned storage, alloc-free by
		// construction. A zero-slack clamp makes later appends
		// reallocate privately, but that is the arena's maintenance
		// escape hatch, deliberately off the hot path.
		return true
	default:
		return true // selectors, index expressions, other variables
	}
}
