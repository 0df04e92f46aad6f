package lint

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// ablationSwitches are the core.Config ablation fields, set only by the
// experiment harness (internal/bench). The compiler copies them into the
// compiled layout exactly once (core.layout / arming);
// per-event code must read the compiled copy, never the live Config —
// a mid-stream Config read would let a concurrently mutated switch
// change kernel behaviour between events of one batch, which is both a
// race and an ablation-methodology bug (the measured configuration no
// longer matches the armed one).
var ablationSwitches = map[string]bool{
	"DisableHybridPostings": true,
	"DisableFlatEq":         true,
}

// AblationConst enforces that reading a Disable* ablation switch is a
// compile/arming-time act: reads are forbidden inside //apcm:hotpath
// functions and inside any for/range body (the per-event loops).
// Writes (the field as an assignment target or composite-literal key)
// are configuration, not consultation, and stay legal anywhere outside
// hot paths. Test files are exempt — tests flip switches around loops
// freely.
var AblationConst = &analysis.Analyzer{
	Name:     "ablationconst",
	Doc:      "restrict ablation switch reads to compile/arming sites outside hot loops",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runAblationConst,
}

func runAblationConst(pass *analysis.Pass) (interface{}, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.WithStack([]ast.Node{(*ast.SelectorExpr)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return false
		}
		sel := n.(*ast.SelectorExpr)
		if !ablationSwitches[sel.Sel.Name] || isTestFile(pass.Fset, sel.Pos()) {
			return true
		}
		// Only struct-field selectors count, not same-named methods or
		// package members.
		if v, ok := pass.TypesInfo.ObjectOf(sel.Sel).(*types.Var); !ok || !v.IsField() {
			return true
		}
		if isWriteTarget(sel, stack) {
			return true
		}
		switch where := readContext(stack); where {
		case "":
			return true
		default:
			pass.Reportf(sel.Pos(),
				"ablation switch %s read %s; copy it into the compiled layout at arming time instead",
				sel.Sel.Name, where)
		}
		return true
	})
	return nil, nil
}

// isWriteTarget reports whether sel is being assigned to (cfg.DisableX =
// true) rather than read.
func isWriteTarget(sel *ast.SelectorExpr, stack []ast.Node) bool {
	if len(stack) < 2 {
		return false
	}
	parent := stack[len(stack)-2]
	if as, ok := parent.(*ast.AssignStmt); ok {
		for _, lhs := range as.Lhs {
			if ast.Unparen(lhs) == sel {
				return true
			}
		}
	}
	return false
}

// readContext classifies the enclosing context of a switch read:
// "" (legal), "in hot-path function F", or "inside a loop in F".
func readContext(stack []ast.Node) string {
	var fnName string
	var inLoop, hot bool
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			inLoop = true
		case *ast.FuncLit:
			// A literal defined inside a loop still executes per
			// iteration only if called there; stay conservative and keep
			// the loop flag — arming code does not build closures in
			// loops around ablation reads.
		case *ast.FuncDecl:
			fnName = n.Name.Name
			if hasDirective(n.Doc, dirHotPath) {
				hot = true
			}
		}
	}
	if fnName == "" {
		fnName = "a function literal"
	}
	switch {
	case hot:
		return "in hot-path function " + fnName
	case inLoop:
		return "inside a loop in " + fnName
	default:
		return ""
	}
}
