package lint

// flow.go is the shared flow-analysis substrate for the concurrency and
// durability analyzers (lockorder, goroutinelife, fsyncorder). The
// original design called for golang.org/x/tools/go/ssa, but go/ssa
// cannot be vendored offline (the repo vendors only the
// analysis/cfg subset the Go toolchain itself ships); for the invariants
// checked here — dominance of one call over another, reachability to a
// return without passing a signal, may-acquire summaries — a CFG with
// dominators over typed ASTs is exactly as expressive, and it keeps
// `make lint` building from the vendored snapshot alone. The substrate
// provides:
//
//   - funcFlows: every function-like body in the package (declarations
//     and literals) paired with its control-flow graph;
//   - dominators: classic iterative dominator sets over a cfg.CFG, with
//     node-granular Dominates (block order breaks intra-block ties);
//   - static call resolution (pkgDecls) from call sites to same-package
//     FuncDecl bodies, the boundary of all interprocedural reasoning;
//   - reach: per-function transitive property computation ("may acquire
//     lock L", "performs a commit", "contains a join edge") as a fixed
//     point over the package's static call graph, with calls under `go`
//     excluded — a spawned goroutine runs the callee on another stack,
//     so the caller neither holds its locks there nor inherits its
//     signals.
//
// All reasoning is deliberately package-local: cross-package calls
// contribute nothing to summaries. That is unsound in general and the
// right trade here — the invariants these analyzers encode (DESIGN §9,
// §10, §11) are each owned by one package, and the annotation
// (`//apcm:durable`, `//apcm:lockrank`) marks the boundary where the
// reasoning must hold.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/cfg"
)

// funcFlow is one function-like body with its CFG: a declaration or a
// function literal. decl is nil for literals, lit nil for declarations.
type funcFlow struct {
	decl *ast.FuncDecl
	lit  *ast.FuncLit
	body *ast.BlockStmt
	g    *cfg.CFG
}

// node returns the function-like AST node (for identity keying).
func (f *funcFlow) node() ast.Node {
	if f.decl != nil {
		return f.decl
	}
	return f.lit
}

// name describes the function for diagnostics.
func (f *funcFlow) name() string {
	if f.decl != nil {
		return f.decl.Name.Name
	}
	return "a function literal"
}

// funcFlows collects every function body in the package with its CFG,
// in file order. Bodies whose CFG the ctrlflow pass could not build
// (none, in practice) are skipped.
func funcFlows(pass *analysis.Pass) []*funcFlow {
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)
	var out []*funcFlow
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					if g := cfgs.FuncDecl(n); g != nil {
						out = append(out, &funcFlow{decl: n, body: n.Body, g: g})
					}
				}
			case *ast.FuncLit:
				if g := cfgs.FuncLit(n); g != nil {
					out = append(out, &funcFlow{lit: n, body: n.Body, g: g})
				}
			}
			return true
		})
	}
	return out
}

// pkgDecls maps the package's function objects to their declarations,
// the resolution table for static calls.
func pkgDecls(pass *analysis.Pass) map[*types.Func]*ast.FuncDecl {
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
			}
		}
	}
	return decls
}

// staticCallee resolves call to the function object it statically
// invokes: a plain function, a method on a concrete receiver, or nil for
// builtins, conversions, interface/func-value calls.
func staticCallee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		// Method values and package-qualified functions both resolve
		// through the selector identifier. Interface method calls also
		// yield a *types.Func — reject those: the body is unknown.
		fn, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		if !ok {
			return nil
		}
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			if types.IsInterface(sig.Recv().Type()) {
				return nil
			}
		}
		return fn
	}
	return nil
}

// dominators holds the dominator sets of one CFG. Block i's set is
// doms[i], a bitset over block indices.
type dominators struct {
	g    *cfg.CFG
	doms [][]uint64
}

// newDominators computes dominator sets with the classic iterative
// algorithm. CFGs here are function-sized (tens of blocks), so set
// intersection over word slices converges in a handful of passes.
func newDominators(g *cfg.CFG) *dominators {
	n := len(g.Blocks)
	words := (n + 63) / 64
	doms := make([][]uint64, n)
	full := make([]uint64, words)
	for i := range full {
		full[i] = ^uint64(0)
	}
	for i := range doms {
		doms[i] = make([]uint64, words)
		copy(doms[i], full)
	}
	// Entry dominates only itself; everything else starts full.
	entry := int(g.Blocks[0].Index)
	for i := range doms[entry] {
		doms[entry][i] = 0
	}
	doms[entry][entry/64] = 1 << (entry % 64)

	preds := make([][]int, n)
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			preds[s.Index] = append(preds[s.Index], int(b.Index))
		}
	}
	tmp := make([]uint64, words)
	for changed := true; changed; {
		changed = false
		for _, b := range g.Blocks {
			i := int(b.Index)
			if i == entry {
				continue
			}
			copy(tmp, full)
			any := false
			for _, p := range preds[i] {
				any = true
				for w := range tmp {
					tmp[w] &= doms[p][w]
				}
			}
			if !any {
				// Unreachable block: keep the full set (vacuous).
				continue
			}
			tmp[i/64] |= 1 << (i % 64)
			for w := range tmp {
				if tmp[w] != doms[i][w] {
					doms[i][w] = tmp[w]
					changed = true
				}
			}
		}
	}
	return &dominators{g: g, doms: doms}
}

// blockDominates reports whether block a dominates block b.
func (d *dominators) blockDominates(a, b int32) bool {
	return d.doms[b][a/64]&(1<<(a%64)) != 0
}

// flowPoint is a node-granular program point: a block and the node's
// index within it.
type flowPoint struct {
	block *cfg.Block
	idx   int
}

// pointOf locates the innermost CFG node containing pos. Nodes are
// statements and control expressions; a call buried in an expression
// maps to the statement node carrying it.
func pointOf(g *cfg.CFG, pos token.Pos) (flowPoint, bool) {
	best := flowPoint{idx: -1}
	var bestSize token.Pos = 1 << 40
	for _, b := range g.Blocks {
		for i, n := range b.Nodes {
			if n.Pos() <= pos && pos < n.End() && n.End()-n.Pos() < bestSize {
				best = flowPoint{block: b, idx: i}
				bestSize = n.End() - n.Pos()
			}
		}
	}
	return best, best.idx >= 0
}

// dominates reports whether program point a dominates program point b:
// strictly earlier in the same block, or in a dominating block.
func (d *dominators) dominates(a, b flowPoint) bool {
	if a.block == b.block {
		return a.idx < b.idx
	}
	return d.blockDominates(a.block.Index, b.block.Index)
}

// forEachCall walks the calls syntactically inside node n in source
// order, skipping nested function literals (they run on their own
// schedule and are summarised at their capture site) and the spawned
// call of go statements (it runs on another goroutine). Deferred calls
// are visited with deferred=true — they execute on this goroutine, at
// return.
func forEachCall(n ast.Node, fn func(call *ast.CallExpr, deferred bool)) {
	var walk func(n ast.Node, deferred bool)
	walk = func(n ast.Node, deferred bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.GoStmt:
				// Arguments evaluate here; the call itself does not.
				for _, arg := range m.Call.Args {
					walk(arg, deferred)
				}
				return false
			case *ast.DeferStmt:
				for _, arg := range m.Call.Args {
					walk(arg, deferred)
				}
				walk(m.Call.Fun, deferred)
				fn(m.Call, true)
				return false
			case *ast.CallExpr:
				fn(m, deferred)
			}
			return true
		})
	}
	walk(n, false)
}

// funcLitArgs returns the function literals syntactically passed as
// arguments of call (sync.Once.Do(func(){...}), pool.Run(n, func(...){...})):
// the callee may invoke them on this goroutine, so their effects are
// charged to the call site.
func funcLitArgs(call *ast.CallExpr) []*ast.FuncLit {
	var lits []*ast.FuncLit
	for _, arg := range call.Args {
		if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
			lits = append(lits, lit)
		}
	}
	// Immediately-invoked literal: func(){...}().
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		lits = append(lits, lit)
	}
	return lits
}

// callSuccs builds the static call graph over the package's bodies:
// from each body to the same-package bodies it invokes on this
// goroutine (calls under `go` excluded, literals passed as call
// arguments included).
func callSuccs(pass *analysis.Pass, flows []*funcFlow, decls map[*types.Func]*ast.FuncDecl) map[ast.Node][]ast.Node {
	succs := make(map[ast.Node][]ast.Node, len(flows))
	for _, f := range flows {
		var out []ast.Node
		forEachCall(f.body, func(call *ast.CallExpr, _ bool) {
			if fn := staticCallee(pass, call); fn != nil {
				if d, ok := decls[fn]; ok {
					out = append(out, d)
				}
			}
			for _, lit := range funcLitArgs(call) {
				out = append(out, lit)
			}
		})
		succs[f.node()] = out
	}
	return succs
}

// reach computes, for every function-like body in the package, the
// transitive union of per-body seed values across the static call
// graph: result(f) = seed(f) ∪ result(g) for every same-package g
// statically called from f. Keys of the seed and result maps are the
// *ast.FuncDecl / *ast.FuncLit nodes from funcFlows.
func reach(flows []*funcFlow, succs map[ast.Node][]ast.Node, seed map[ast.Node]map[types.Object]bool) map[ast.Node]map[types.Object]bool {
	result := make(map[ast.Node]map[types.Object]bool, len(flows))
	for _, f := range flows {
		set := make(map[types.Object]bool)
		for o := range seed[f.node()] {
			set[o] = true
		}
		result[f.node()] = set
	}
	for changed := true; changed; {
		changed = false
		for _, f := range flows {
			set := result[f.node()]
			for _, callee := range succs[f.node()] {
				for o := range result[callee] {
					if !set[o] {
						set[o] = true
						changed = true
					}
				}
			}
		}
	}
	return result
}

// reachBool is reach for a single boolean property: result(f) = seed(f)
// ∨ result(g) for every static callee g.
func reachBool(flows []*funcFlow, succs map[ast.Node][]ast.Node, seed map[ast.Node]bool) map[ast.Node]bool {
	result := make(map[ast.Node]bool, len(flows))
	for _, f := range flows {
		result[f.node()] = seed[f.node()]
	}
	for changed := true; changed; {
		changed = false
		for _, f := range flows {
			if result[f.node()] {
				continue
			}
			for _, callee := range succs[f.node()] {
				if result[callee] {
					result[f.node()] = true
					changed = true
					break
				}
			}
		}
	}
	return result
}

// --- directive parsing -------------------------------------------------

// directiveValue extracts the value of a //name=value directive from a
// comment group, reporting whether the directive is present.
func directiveValue(doc *ast.CommentGroup, name string) (string, bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		text := strings.TrimPrefix(c.Text, "//")
		if rest, ok := strings.CutPrefix(text, name+"="); ok {
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
}

// lockRanks scans the package's struct declarations for fields
// annotated //apcm:lockrank=N and returns their declared ranks plus a
// diagnostic label ("Struct.field") per annotated or mutex-typed field.
func lockRanks(pass *analysis.Pass) (ranks map[types.Object]int, labels map[types.Object]string) {
	ranks = make(map[types.Object]int)
	labels = make(map[types.Object]string)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					obj := pass.TypesInfo.Defs[name]
					if obj == nil {
						continue
					}
					labels[obj] = ts.Name.Name + "." + name.Name
					for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
						if v, ok := directiveValue(cg, dirLockRank); ok {
							if r, err := strconv.Atoi(v); err == nil {
								ranks[obj] = r
							} else {
								pass.Reportf(field.Pos(), "malformed //%s=%s directive (want an integer rank)", dirLockRank, v)
							}
						}
					}
				}
			}
			return true
		})
	}
	return ranks, labels
}

// lockLabel names a lock object for diagnostics: "Struct.field" when
// the declaring struct is known, the bare name otherwise.
func lockLabel(labels map[types.Object]string, obj types.Object) string {
	if l, ok := labels[obj]; ok {
		return l
	}
	return obj.Name()
}
