// Package lint holds apcm's repo-specific go/analysis analyzers: the
// engine's performance and correctness invariants that no compiler
// checks and no test run reliably reaches, enforced on every build (CI
// runs the suite as a required step; see cmd/apcm-lint).
//
// The suite machine-checks the rules the hot path rests on:
//
//   - hotpathalloc: functions annotated //apcm:hotpath must stay free of
//     constructs that heap-allocate or defeat inlining — closures, defer,
//     address-taken composite literals, new(), interface conversions,
//     map iteration, and appends to slices that provably start at
//     capacity zero.
//   - scratchrelease: every scratch/pool acquire (Engine.getScratch,
//     sync.Pool Get) must be released on all return paths, including
//     the ones no allocation gate takes.
//   - metricname: metric registrations use literal, unique,
//     apcm_-prefixed snake_case names, outside hot paths, with label
//     values drawn from compile-time-bounded sets.
//   - lockorder: sync.Mutex/RWMutex acquisitions respect the partial
//     order declared by //apcm:lockrank annotations, form no cycles in
//     the package's may-hold-while-acquiring graph, and never occur in
//     //apcm:hotpath functions.
//   - goroutinelife: every `go` statement carries a join/stop edge —
//     WaitGroup.Done, channel close or send, context cancellation — on
//     all paths, or is annotated //apcm:detached.
//   - fsyncorder: in //apcm:durable functions, delivery-frame emission
//     is dominated by a completed commit-log Append/Sync/WaitCommitted
//     (never Stage alone) — the machine-checked half of delivered ⊆
//     committed (DESIGN §9).
//
// Annotation convention: a directive comment in the doc block of a
// function, e.g.
//
//	// matchHybrid runs the compressed kernel.
//	//
//	//apcm:hotpath
//	func (c *compiled) matchHybrid(...) ...
//
// Directives are ordinary line comments with no space after the slashes,
// so go doc hides them, exactly like //go:noinline.
//
// Run the suite with `make lint`, which builds cmd/apcm-lint and runs
// `go vet -vettool=$PWD/apcm-lint ./...`. See DESIGN.md §7.
package lint

import (
	"go/ast"
	"go/token"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// Analyzers returns the full apcm-lint suite in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		HotPathAlloc,
		ScratchRelease,
		MetricName,
		LockOrder,
		GoroutineLife,
		FsyncOrder,
	}
}

// directive names recognised in doc comments. dirHotPath, dirDurable,
// dirEmits, dirDetached and dirLockSafe annotate functions; dirLockRank
// annotates struct fields.
const (
	dirHotPath  = "apcm:hotpath"
	dirLockRank = "apcm:lockrank" // =N: field's rank in the lock partial order
	dirDurable  = "apcm:durable"  // function is a durable delivery path
	dirEmits    = "apcm:emits"    // function emits delivery frames
	dirDetached = "apcm:detached" // next go statement deliberately has no join edge
	dirLockSafe = "apcm:locksafe" // lock acquire here is reviewed (hotpath slow tail)
)

// hasDirective reports whether doc contains the //name directive (no
// space after the slashes, like //go: directives).
func hasDirective(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimPrefix(c.Text, "//")
		if text == name || strings.HasPrefix(text, name+" ") {
			return true
		}
	}
	return false
}

// isTestFile reports whether pos lies in a _test.go file. Analyzers that
// encode production-only conventions (metric naming, goroutine joins,
// durable delivery order) skip test files.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.File(pos).Name(), "_test.go")
}
