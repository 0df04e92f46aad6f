package lint

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/analysis/passes/inspect"
)

// FsyncOrder machine-checks the delivered ⊆ committed theorem from the
// durable broker (DESIGN §9): on a durable delivery path, no frame may
// go to the wire before the commit log has accepted the record. In any
// function annotated //apcm:durable, every *emission* — a call that can
// put a delivery frame on a connection — must be *dominated* by a
// *commit* — a completed commitlog Append/Sync/WaitCommitted — in the
// function's CFG. Dominance is the right relation: it is exactly "on
// every execution that reaches the emission, the commit already
// happened", which is the crash-safety obligation (a crash after
// emission must find the record in the log).
//
// Emissions are calls to functions or methods named
// send/Send/writeFrame/WriteFrame, to functions annotated //apcm:emits,
// or to same-package functions that transitively reach one. Commits are
// calls to Append/Sync/WaitCommitted methods on a type named Log (the
// commitlog), or to same-package functions that transitively perform
// one. Stage is deliberately not a commit: it only assigns the offset,
// and the record is durable once the WaitCommitted that follows it
// returns. A commit inside an `if err != nil` failure branch still
// dominates nothing past its check, so the ordinary
// `rec, err := log.Append(...)` then `if err != nil { return }` shape
// verifies naturally, and a commit wait skipped on some path (a
// "fast path" guarded by a cached watermark) is reported.
//
// The annotation is the boundary: un-annotated functions are not
// durable paths (best-effort delivery may legitimately emit without
// committing), so the analyzer stays silent there. Test files are
// exempt.
var FsyncOrder = &analysis.Analyzer{
	Name:     "fsyncorder",
	Doc:      "require delivery emission in //apcm:durable functions to be dominated by a commitlog Append/Sync/WaitCommitted",
	Requires: []*analysis.Analyzer{inspect.Analyzer, ctrlflow.Analyzer},
	Run:      runFsyncOrder,
}

// emitMethodNames are the direct emission shapes.
var emitMethodNames = map[string]bool{
	"send": true, "Send": true, "writeFrame": true, "WriteFrame": true,
}

// commitMethodNames are the direct commit shapes, on a receiver type
// named Log. Stage is absent on purpose: staging is not committing.
var commitMethodNames = map[string]bool{"Append": true, "Sync": true, "WaitCommitted": true}

func runFsyncOrder(pass *analysis.Pass) (interface{}, error) {
	flows := funcFlows(pass)
	if len(flows) == 0 {
		return nil, nil
	}
	decls := pkgDecls(pass)
	succs := callSuccs(pass, flows, decls)

	// Annotated //apcm:emits declarations count as direct emitters even
	// when their bodies are opaque wrappers.
	emitSeed := make(map[ast.Node]bool, len(flows))
	commitSeed := make(map[ast.Node]bool, len(flows))
	for _, f := range flows {
		direct := false
		commits := false
		walkOwnBody(f.body, func(n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			if isEmitCall(pass, call) {
				direct = true
			}
			if isCommitCall(pass, call) {
				commits = true
			}
		})
		if f.decl != nil && hasDirective(f.decl.Doc, dirEmits) {
			direct = true
		}
		emitSeed[f.node()] = direct
		commitSeed[f.node()] = commits
	}
	mayEmit := reachBool(flows, succs, emitSeed)
	mayCommit := reachBool(flows, succs, commitSeed)

	for _, f := range flows {
		if f.decl == nil || !hasDirective(f.decl.Doc, dirDurable) {
			continue
		}
		if isTestFile(pass.Fset, f.decl.Pos()) {
			continue
		}
		checkDurable(pass, f, decls, mayEmit, mayCommit)
	}
	return nil, nil
}

// isEmitCall reports whether call is a direct emission: a method or
// func value with one of the emitter names on a non-package receiver,
// or an unqualified function of that name (the broker's writeFrame).
// Transitive and //apcm:emits-annotated emissions are resolved through
// the reach summaries (the annotation seeds the declaring body).
func isEmitCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		_, isFunc := pass.TypesInfo.Uses[fun].(*types.Func)
		return isFunc && emitMethodNames[fun.Name]
	case *ast.SelectorExpr:
		if !emitMethodNames[fun.Sel.Name] {
			return false
		}
		_, isPkg := pass.TypesInfo.Uses[selRoot(fun)].(*types.PkgName)
		return !isPkg
	}
	return false
}

// isCommitCall reports whether call is a direct commit:
// Append/Sync/WaitCommitted on a receiver whose (possibly pointer)
// named type is Log.
func isCommitCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !commitMethodNames[sel.Sel.Name] {
		return false
	}
	t := pass.TypesInfo.TypeOf(sel.X)
	if t == nil {
		return false
	}
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	return ok && named.Obj().Name() == "Log"
}

// selRoot returns the leftmost identifier of a selector chain (to tell
// pkg.Send from conn.Send).
func selRoot(sel *ast.SelectorExpr) *ast.Ident {
	for {
		switch x := ast.Unparen(sel.X).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			sel = x
		default:
			return sel.Sel
		}
	}
}

// checkDurable verifies one //apcm:durable function: every emission
// point must be dominated by a commit point.
func checkDurable(pass *analysis.Pass, f *funcFlow, decls map[*types.Func]*ast.FuncDecl, mayEmit, mayCommit map[ast.Node]bool) {
	dom := newDominators(f.g)

	// Collect commit and emission program points. A call is an emission
	// point if it directly emits or its same-package callee may emit; a
	// commit point likewise. A call that both commits and emits (a
	// write-through helper) counts as a commit for everything it
	// dominates and is itself exempt — its own ordering is checked where
	// its body is declared.
	var commits []flowPoint
	type emitAt struct {
		pt   flowPoint
		call *ast.CallExpr
	}
	var emits []emitAt
	walkOwnBody(f.body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		commitHere := isCommitCall(pass, call)
		emitHere := isEmitCall(pass, call)
		if fn := staticCallee(pass, call); fn != nil {
			if d, ok := decls[fn]; ok {
				if mayCommit[d] {
					commitHere = true
				}
				if mayEmit[d] {
					emitHere = true
				}
			}
		}
		pt, ok := pointOf(f.g, call.Pos())
		if !ok {
			return
		}
		if commitHere {
			commits = append(commits, pt)
		}
		if emitHere && !commitHere {
			emits = append(emits, emitAt{pt, call})
		}
	})

	for _, e := range emits {
		dominated := false
		for _, c := range commits {
			if dom.dominates(c, e.pt) {
				dominated = true
				break
			}
		}
		if !dominated {
			pass.Reportf(e.call.Pos(),
				"delivery emission in //%s function %s is not dominated by a commitlog Append/Sync (delivered ⊆ committed, DESIGN §9)",
				dirDurable, f.decl.Name.Name)
		}
	}
}
