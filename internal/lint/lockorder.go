package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/analysis/passes/inspect"
)

// LockOrder builds the package's lock-acquisition graph — an edge
// h → a wherever a sync.Mutex/RWMutex a may be acquired while h is
// held, directly or through same-package calls — and rejects:
//
//   - rank inversions: fields annotated //apcm:lockrank=N declare the
//     intended partial order (broker Server.mu=1 before conn.mu=2
//     before consumerState.mu=3); an edge from an equal or higher rank
//     to a lower one is a report at the acquisition site;
//   - cycles among unranked locks: h → a with a path a ⇝ h means two
//     call stacks can interleave into deadlock;
//   - re-acquisition: h → h on a plain Mutex is a self-deadlock (Go
//     mutexes are not reentrant) — the exact shape of the broker bug
//     where a delivery path holding consumerState.mu re-entered detach
//     through the slow-consumer shutdown;
//   - any acquisition inside an //apcm:hotpath function: the match
//     kernels are lock-free by contract; a slow tail that genuinely
//     must lock (commitlog group-commit staging) carries
//     //apcm:locksafe with a justification.
//
// Lock identity is the declaring field or variable object, shared
// across instances — a deliberate conflation: two instances of conn.mu
// are one node, so hand-over-hand locking of sibling instances reports
// as re-acquisition and needs an //apcm:locksafe annotation. Calls
// spawned with `go` contribute nothing: the callee's locks are taken
// on another stack, where nothing is held-while-acquiring.
var LockOrder = &analysis.Analyzer{
	Name:     "lockorder",
	Doc:      "enforce //apcm:lockrank order, reject lock cycles and hot-path lock acquisition",
	Requires: []*analysis.Analyzer{inspect.Analyzer, ctrlflow.Analyzer},
	Run:      runLockOrder,
}

// lockMethods classifies sync.Mutex/RWMutex methods.
var lockAcquires = map[string]bool{"Lock": true, "RLock": true, "TryLock": true, "TryRLock": true}
var lockReleases = map[string]bool{"Unlock": true, "RUnlock": true}

// lockOp is a classified mutex method call: the lock object it targets
// and whether it is an exclusive acquire (Lock/TryLock, not RLock).
type lockOp struct {
	obj       types.Object
	acquire   bool
	exclusive bool
	pos       token.Pos
}

// lockEdge is one held-while-acquiring observation.
type lockEdge struct {
	from, to types.Object
	pos      token.Pos
	// toExclusive records whether the target acquisition is exclusive;
	// an RLock-while-RLock self-edge is legal (shared readers).
	toExclusive bool
}

func runLockOrder(pass *analysis.Pass) (interface{}, error) {
	flows := funcFlows(pass)
	if len(flows) == 0 {
		return nil, nil
	}
	decls := pkgDecls(pass)
	succs := callSuccs(pass, flows, decls)
	ranks, labels := lockRanks(pass)

	// Per-body may-acquire summaries: the locks a body (or anything it
	// statically calls on this goroutine) may take.
	seed := make(map[ast.Node]map[types.Object]bool, len(flows))
	for _, f := range flows {
		set := make(map[types.Object]bool)
		forEachCall(f.body, func(call *ast.CallExpr, _ bool) {
			if op, ok := classifyLockOp(pass, call); ok && op.acquire {
				set[op.obj] = true
			}
		})
		seed[f.node()] = set
	}
	mayAcquire := reach(flows, succs, seed)

	var edges []lockEdge
	for _, f := range flows {
		// //apcm:locksafe on a function suppresses its own edge
		// emission (reviewed hand-over-hand or staging patterns); its
		// acquisitions still flow into callers' summaries.
		if f.decl == nil || !hasDirective(f.decl.Doc, dirLockSafe) {
			edges = append(edges, lockEdgesOf(pass, f, decls, mayAcquire)...)
		}
		checkHotPathLocks(pass, f)
	}
	reportLockEdges(pass, edges, ranks, labels)
	return nil, nil
}

// classifyLockOp recognises a sync.Mutex/RWMutex Lock-family call on a
// trackable lock (a named field or variable).
func classifyLockOp(pass *analysis.Pass, call *ast.CallExpr) (lockOp, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	name := sel.Sel.Name
	if !lockAcquires[name] && !lockReleases[name] {
		return lockOp{}, false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockOp{}, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return lockOp{}, false
	}
	recv := sig.Recv().Type()
	if p, ok := types.Unalias(recv).(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := types.Unalias(recv).(*types.Named)
	if !ok || (named.Obj().Name() != "Mutex" && named.Obj().Name() != "RWMutex") {
		return lockOp{}, false
	}
	obj := lockObject(pass, sel.X)
	if obj == nil {
		return lockOp{}, false
	}
	return lockOp{
		obj:       obj,
		acquire:   lockAcquires[name],
		exclusive: name == "Lock" || name == "TryLock",
		pos:       call.Pos(),
	}, true
}

// lockObject resolves the receiver expression of a mutex method to its
// identity object: the final field of a selector chain (s.mu, c.state.mu)
// or a plain variable. An embedded mutex invoked as s.Lock() resolves to
// the embedded sync.Mutex field via the selection's field path.
func lockObject(pass *analysis.Pass, expr ast.Expr) types.Object {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		if v, ok := pass.TypesInfo.ObjectOf(e).(*types.Var); ok {
			return v
		}
	case *ast.SelectorExpr:
		if v, ok := pass.TypesInfo.ObjectOf(e.Sel).(*types.Var); ok {
			return v
		}
	}
	return nil
}

// lockEdgesOf runs the held-set may-analysis over f's CFG and returns
// the held-while-acquiring edges it observes. in[b] is the union of
// predecessors' out-sets (may-held: an edge that exists on one inbound
// path is still an edge).
func lockEdgesOf(pass *analysis.Pass, f *funcFlow, decls map[*types.Func]*ast.FuncDecl, mayAcquire map[ast.Node]map[types.Object]bool) []lockEdge {
	g := f.g
	n := len(g.Blocks)
	in := make([]map[types.Object]bool, n)
	out := make([]map[types.Object]bool, n)
	for i := range out {
		in[i] = make(map[types.Object]bool)
		out[i] = make(map[types.Object]bool)
	}
	transfer := func(bi int, emit bool, edges *[]lockEdge) {
		held := make(map[types.Object]bool, len(in[bi]))
		for o := range in[bi] {
			held[o] = true
		}
		for _, node := range g.Blocks[bi].Nodes {
			forEachCall(node, func(call *ast.CallExpr, deferred bool) {
				if op, ok := classifyLockOp(pass, call); ok {
					if op.acquire {
						if emit {
							for h := range held {
								*edges = append(*edges, lockEdge{from: h, to: op.obj, pos: call.Pos(), toExclusive: op.exclusive})
							}
						}
						if !deferred {
							held[op.obj] = true
						}
					} else if !deferred {
						// A deferred Unlock releases at return; within
						// the body the lock stays held.
						delete(held, op.obj)
					}
					return
				}
				if emit && len(held) > 0 {
					// Non-lock call: charge the callee's transitive
					// may-acquire set to every held lock.
					targets := make(map[types.Object]bool)
					if fn := staticCallee(pass, call); fn != nil {
						if d, ok := decls[fn]; ok {
							for o := range mayAcquire[d] {
								targets[o] = true
							}
						}
					}
					for _, lit := range funcLitArgs(call) {
						for o := range mayAcquire[lit] {
							targets[o] = true
						}
					}
					for h := range held {
						for a := range targets {
							*edges = append(*edges, lockEdge{from: h, to: a, pos: call.Pos(), toExclusive: true})
						}
					}
				}
			})
		}
		out[bi] = held
	}

	preds := make([][]int, n)
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			preds[s.Index] = append(preds[s.Index], int(b.Index))
		}
	}
	// Fixed point over block out-sets. The transfer function is monotone
	// in the in-set and in-sets only ever grow (union of predecessor
	// outs), so out-set size is a sound change detector.
	for changed := true; changed; {
		changed = false
		for _, b := range g.Blocks {
			bi := int(b.Index)
			merged := make(map[types.Object]bool)
			for _, p := range preds[bi] {
				for o := range out[p] {
					merged[o] = true
				}
			}
			in[bi] = merged
			before := len(out[bi])
			transfer(bi, false, nil)
			if len(out[bi]) != before {
				changed = true
			}
		}
	}
	// Emission pass with converged in-sets.
	var edges []lockEdge
	for _, b := range g.Blocks {
		transfer(int(b.Index), true, &edges)
	}
	return edges
}

// checkHotPathLocks reports direct lock acquisition inside
// //apcm:hotpath function declarations not excused by //apcm:locksafe.
func checkHotPathLocks(pass *analysis.Pass, f *funcFlow) {
	if f.decl == nil || !hasDirective(f.decl.Doc, dirHotPath) || hasDirective(f.decl.Doc, dirLockSafe) {
		return
	}
	forEachCall(f.body, func(call *ast.CallExpr, _ bool) {
		if op, ok := classifyLockOp(pass, call); ok && op.acquire {
			pass.Reportf(call.Pos(),
				"lock acquisition of %s in hot-path function %s (annotate //%s with a justification if the slow tail must lock)",
				op.obj.Name(), f.decl.Name.Name, dirLockSafe)
		}
	})
}

// reportLockEdges checks the collected edges against the declared ranks
// and for cycles, reporting each offending acquisition site once.
func reportLockEdges(pass *analysis.Pass, edges []lockEdge, ranks map[types.Object]int, labels map[types.Object]string) {
	// Adjacency for cycle detection, self-edges excluded (reported
	// separately as re-acquisition).
	adj := make(map[types.Object]map[types.Object]bool)
	for _, e := range edges {
		if e.from == e.to {
			continue
		}
		if adj[e.from] == nil {
			adj[e.from] = make(map[types.Object]bool)
		}
		adj[e.from][e.to] = true
	}
	pathExists := func(from, to types.Object) bool {
		seen := map[types.Object]bool{}
		stack := []types.Object{from}
		for len(stack) > 0 {
			o := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if o == to {
				return true
			}
			if seen[o] {
				continue
			}
			seen[o] = true
			for s := range adj[o] {
				stack = append(stack, s)
			}
		}
		return false
	}

	type reportKey struct {
		pos      token.Pos
		from, to types.Object
	}
	reported := make(map[reportKey]bool)
	// Deterministic order for stable output.
	sort.Slice(edges, func(i, j int) bool { return edges[i].pos < edges[j].pos })
	for _, e := range edges {
		k := reportKey{e.pos, e.from, e.to}
		if reported[k] {
			continue
		}
		switch {
		case e.from == e.to:
			if e.toExclusive {
				reported[k] = true
				pass.Reportf(e.pos,
					"may acquire %s while already holding it (Go mutexes are not reentrant; instance conflation — annotate //%s if hand-over-hand)",
					lockLabel(labels, e.to), dirLockSafe)
			}
		default:
			rf, okf := ranks[e.from]
			rt, okt := ranks[e.to]
			if okf && okt {
				// Both ranked: the declaration arbitrates. The correct
				// direction is sanctioned even if a (reported) reverse
				// edge exists; the wrong direction reports here.
				if rf >= rt {
					reported[k] = true
					pass.Reportf(e.pos,
						"acquires %s (rank %d) while holding %s (rank %d): violates the declared //%s order",
						lockLabel(labels, e.to), rt, lockLabel(labels, e.from), rf, dirLockRank)
				}
				continue
			}
			if pathExists(e.to, e.from) {
				reported[k] = true
				pass.Reportf(e.pos,
					"lock-order cycle: acquires %s while holding %s, but %s is elsewhere acquired while %s is held",
					lockLabel(labels, e.to), lockLabel(labels, e.from), lockLabel(labels, e.from), lockLabel(labels, e.to))
			}
		}
	}
}
