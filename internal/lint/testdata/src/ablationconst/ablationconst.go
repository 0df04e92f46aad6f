// Fixture for the ablationconst analyzer: Disable* switch reads in hot
// paths and loops versus legal arming-time reads and writes.
package ablationconst

type config struct {
	DisableHybridPostings bool
	DisableFlatEq         bool
}

type layout struct{ noHybrid bool }

type engine struct {
	cfg config
	lo  layout
}

// Arming-time read: straight-line code outside any hot path or loop.
func arm(e *engine) {
	e.lo.noHybrid = e.cfg.DisableHybridPostings
}

// Writes configure; they are not consultations.
func configure(e *engine) {
	e.cfg.DisableFlatEq = true
}

//apcm:hotpath
func hotRead(e *engine) bool {
	return e.cfg.DisableFlatEq // want `ablation switch DisableFlatEq read in hot-path function hotRead`
}

func loopRead(e *engine, events []int) int {
	n := 0
	for range events {
		if e.cfg.DisableHybridPostings { // want `ablation switch DisableHybridPostings read inside a loop in loopRead`
			n++
		}
	}
	return n
}

// Reading the compiled copy inside the loop is the blessed pattern.
func loopReadCompiled(e *engine, events []int) int {
	n := 0
	for range events {
		if e.lo.noHybrid {
			n++
		}
	}
	return n
}
