// Fixture for the scratchrelease analyzer: acquires that leak on some
// return path, and every sanctioned lifetime pattern.
package scratchrelease

import "sync"

type thing struct{ n int }

var pool = sync.Pool{New: func() interface{} { return new(thing) }}
var boxes sync.Pool

type engine struct{}

func (e *engine) getScratch() *thing  { return &thing{} }
func (e *engine) putScratch(t *thing) { _ = t }

func leakOnEarlyReturn(cond bool) int {
	t := pool.Get().(*thing) // want `t acquired by sync.Pool.Get is not released`
	if cond {
		return 0
	}
	pool.Put(t)
	return t.n
}

func leakScratch(e *engine, cond bool) {
	s := e.getScratch() // want `s acquired by getScratch is not released`
	if cond {
		return
	}
	e.putScratch(s)
}

func deferCoversAllPaths(cond bool) int {
	t := pool.Get().(*thing)
	defer pool.Put(t)
	if cond {
		return 0
	}
	return t.n
}

func releasedOnEveryPath(e *engine, cond bool) int {
	s := e.getScratch()
	if cond {
		e.putScratch(s)
		return 0
	}
	n := s.n
	e.putScratch(s)
	return n
}

// Comma-ok asserted Gets opt into manual lifetime management.
func commaOkExempt() {
	t, _ := pool.Get().(*thing)
	_ = t
}

// The value escapes: ownership moves to the caller, who releases.
func escapeByReturn() *thing {
	t := pool.Get().(*thing)
	return t
}

// Cross-pool recycling (a box moved between two pools): Put on a
// different pool still counts as a release.
func crossPool() {
	t := pool.Get().(*thing)
	boxes.Put(t)
}

// A path that panics instead of returning needs no release.
func panicPath(cond bool) {
	t := pool.Get().(*thing)
	if cond {
		panic("bad state")
	}
	pool.Put(t)
}
