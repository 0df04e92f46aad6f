package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/cfg"
)

// ScratchRelease is a flow-sensitive check that every scratch/pool
// acquire is paired with a release on all return paths — the class of
// bug PR 3 fixed (a scratch released without flushing its counters on
// one path). Tracked acquire shapes:
//
//	s := e.getScratch()            → e.putScratch(s) (or deferred)
//	r := pool.Get().(*T)           → pool.Put(r) for any sync.Pool
//
// plus, release-wise, any method named release/Release called on the
// acquired variable. A release on any sync.Pool counts (a recycler may
// legitimately move boxes between two pools).
//
// Deliberately exempt, to stay honest without interprocedural analysis:
//
//   - values that escape the function (returned, stored into a field,
//     slice, map or channel) — ownership moved, another function
//     releases;
//   - comma-ok asserted Gets (x, _ := p.Get().(*T)) — the nilable form
//     acknowledges manual lifetime management;
//   - paths that end in panic rather than return.
var ScratchRelease = &analysis.Analyzer{
	Name:     "scratchrelease",
	Doc:      "require scratch/pool acquires to be released on every return path",
	Requires: []*analysis.Analyzer{inspect.Analyzer, ctrlflow.Analyzer},
	Run:      runScratchRelease,
}

// acquireReleases maps acquire method names to their release method
// names (matched by name so fixtures need not import the engine).
var acquireReleases = map[string][]string{
	"getScratch": {"putScratch"},
}

// genericReleases are accepted for every tracked acquire.
var genericReleases = []string{"release", "Release"}

func runScratchRelease(pass *analysis.Pass) (interface{}, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}, func(n ast.Node) {
		var body *ast.BlockStmt
		var g *cfg.CFG
		switch n := n.(type) {
		case *ast.FuncDecl:
			body = n.Body
			if body != nil {
				g = cfgs.FuncDecl(n)
			}
		case *ast.FuncLit:
			body = n.Body
			if body != nil {
				g = cfgs.FuncLit(n)
			}
		}
		if body == nil || g == nil {
			return
		}
		checkFuncScratch(pass, body, g)
	})
	return nil, nil
}

// acquireSite is one tracked acquisition: the assignment that captured
// the value and the variable holding it.
type acquireSite struct {
	assign   *ast.AssignStmt
	v        *types.Var
	releases []string // accepted release call names
	label    string   // for diagnostics: "getScratch" or "sync.Pool.Get"
}

func checkFuncScratch(pass *analysis.Pass, body *ast.BlockStmt, g *cfg.CFG) {
	// Inner function literals get their own CFG and their own check; do
	// not double-report their contents here.
	inInner := innerFuncRanges(body)

	var sites []acquireSite
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n.Pos() != body.Pos() {
			return false
		}
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) == 0 {
			return true
		}
		if site, ok := acquireOf(pass, assign); ok && !inInner(assign.Pos()) {
			sites = append(sites, site)
		}
		return true
	})
	if len(sites) == 0 {
		return
	}

	for _, site := range sites {
		if escapes(pass, body, site.v, site.assign, inInner) {
			continue
		}
		if deferredRelease(pass, body, site, inInner) {
			continue
		}
		if leakPos, ok := leaksOnSomePath(pass, g, site); ok {
			pass.Reportf(site.assign.Pos(),
				"%s acquired by %s is not released on the return path at %s (missing %s)",
				site.v.Name(), site.label, pass.Fset.Position(leakPos), site.releases[0])
		}
	}
}

// acquireOf recognises a tracked acquire assignment and returns its
// site. Only single-variable captures into plain identifiers count;
// comma-ok type assertions are exempt by design.
func acquireOf(pass *analysis.Pass, assign *ast.AssignStmt) (acquireSite, bool) {
	if len(assign.Rhs) != 1 {
		return acquireSite{}, false
	}
	rhs := ast.Unparen(assign.Rhs[0])
	// Unwrap a plain (non comma-ok) type assertion: pool.Get().(*T).
	if ta, ok := rhs.(*ast.TypeAssertExpr); ok {
		if len(assign.Lhs) == 2 {
			return acquireSite{}, false // comma-ok form: exempt
		}
		rhs = ast.Unparen(ta.X)
	}
	call, ok := rhs.(*ast.CallExpr)
	if !ok || len(assign.Lhs) != 1 {
		return acquireSite{}, false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return acquireSite{}, false
	}
	id, ok := assign.Lhs[0].(*ast.Ident)
	if !ok || id.Name == "_" {
		return acquireSite{}, false
	}
	v, ok := pass.TypesInfo.ObjectOf(id).(*types.Var)
	if !ok {
		return acquireSite{}, false
	}
	if rels, ok := acquireReleases[sel.Sel.Name]; ok {
		return acquireSite{assign: assign, v: v,
			releases: append(rels, genericReleases...), label: sel.Sel.Name}, true
	}
	if sel.Sel.Name == "Get" && isSyncPool(pass.TypesInfo.TypeOf(sel.X)) {
		return acquireSite{assign: assign, v: v,
			releases: append([]string{"Put"}, genericReleases...), label: "sync.Pool.Get"}, true
	}
	return acquireSite{}, false
}

func isSyncPool(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Pool" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}

// innerFuncRanges returns a predicate for positions inside function
// literals nested in body (excluding body itself).
func innerFuncRanges(body *ast.BlockStmt) func(token.Pos) bool {
	type rng struct{ lo, hi token.Pos }
	var rs []rng
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			rs = append(rs, rng{lit.Pos(), lit.End()})
			return false
		}
		return true
	})
	return func(p token.Pos) bool {
		for _, r := range rs {
			if r.lo <= p && p < r.hi {
				return true
			}
		}
		return false
	}
}

// escapes reports whether v itself leaves the function by a route other
// than a release call: returned, sent, stored into a composite, or
// assigned to anything that is not a plain local variable. Only the
// bare identifier counts — a returned field read (return t.n) does not
// move ownership of t.
func escapes(pass *analysis.Pass, body *ast.BlockStmt, v *types.Var, acq *ast.AssignStmt, inInner func(token.Pos) bool) bool {
	esc := false
	ast.Inspect(body, func(n ast.Node) bool {
		if esc {
			return false
		}
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if isVar(pass, r, v) {
					esc = true
				}
			}
		case *ast.SendStmt:
			if isVar(pass, n.Value, v) {
				esc = true
			}
		case *ast.AssignStmt:
			if n == acq {
				return true
			}
			for i, rhs := range n.Rhs {
				if !isVar(pass, rhs, v) {
					continue
				}
				if i < len(n.Lhs) {
					if id, ok := n.Lhs[i].(*ast.Ident); ok && !inInner(id.Pos()) {
						if _, isLocal := pass.TypesInfo.ObjectOf(id).(*types.Var); isLocal {
							continue // local alias: conservatively not an escape
						}
					}
				}
				esc = true // stored into a field, index, map or global
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				if isVar(pass, el, v) {
					esc = true
				}
			}
		}
		return !esc
	})
	return esc
}

// isVar reports whether expr is exactly the variable v (modulo parens).
func isVar(pass *analysis.Pass, expr ast.Expr, v *types.Var) bool {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	return ok && pass.TypesInfo.ObjectOf(id) == v
}

// deferredRelease reports whether body contains a defer of an accepted
// release with v as argument or receiver; a deferred release covers
// every path at once.
func deferredRelease(pass *analysis.Pass, body *ast.BlockStmt, site acquireSite, inInner func(token.Pos) bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		d, ok := n.(*ast.DeferStmt)
		if !ok || found || inInner(d.Pos()) {
			return !found
		}
		if isReleaseCall(pass, d.Call, site) {
			found = true
		}
		return !found
	})
	return found
}

// isReleaseCall reports whether call is an accepted release of site.v:
// a call to one of the release names with v as an argument, or a
// release method invoked on v itself.
func isReleaseCall(pass *analysis.Pass, call *ast.CallExpr, site acquireSite) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	name := sel.Sel.Name
	ok = false
	for _, r := range site.releases {
		if name == r {
			ok = true
			break
		}
	}
	if !ok {
		return false
	}
	if id, isIdent := ast.Unparen(sel.X).(*ast.Ident); isIdent && pass.TypesInfo.ObjectOf(id) == site.v {
		return true // s.release()
	}
	for _, arg := range call.Args {
		if id, isIdent := ast.Unparen(arg).(*ast.Ident); isIdent && pass.TypesInfo.ObjectOf(id) == site.v {
			return true // e.putScratch(s) / pool.Put(s)
		}
	}
	return false
}

// leaksOnSomePath walks the CFG from the acquire block looking for a
// return reachable without passing a release. It returns the position
// of the offending return.
func leaksOnSomePath(pass *analysis.Pass, g *cfg.CFG, site acquireSite) (token.Pos, bool) {
	// Locate the block holding the acquire and the node index within it.
	var start *cfg.Block
	startIdx := -1
	for _, b := range g.Blocks {
		for i, n := range b.Nodes {
			if n.Pos() <= site.assign.Pos() && site.assign.End() <= n.End() {
				start, startIdx = b, i
			}
		}
	}
	if start == nil {
		return token.NoPos, false
	}
	releasedIn := func(b *cfg.Block, from int) bool {
		for i := from; i < len(b.Nodes); i++ {
			rel := false
			ast.Inspect(b.Nodes[i], func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && isReleaseCall(pass, call, site) {
					rel = true
				}
				return !rel
			})
			if rel {
				return true
			}
		}
		return false
	}
	if releasedIn(start, startIdx+1) {
		// Released in the straight-line remainder of the acquire block;
		// successors inherit the release.
		return token.NoPos, false
	}
	// BFS from the acquire block's successors; a block that releases
	// closes its subtree, a return block reached first is a leak.
	if ret := start.Return(); ret != nil {
		return ret.Pos(), true
	}
	seen := map[*cfg.Block]bool{start: true}
	queue := append([]*cfg.Block(nil), start.Succs...)
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		if seen[b] {
			continue
		}
		seen[b] = true
		if releasedIn(b, 0) {
			continue
		}
		if ret := b.Return(); ret != nil {
			return ret.Pos(), true
		}
		queue = append(queue, b.Succs...)
	}
	return token.NoPos, false
}
