//go:build apcmlint_smoke

// Package smoke exists to prove the lint gate fires: it seeds at least
// one violation per analyzer behind the apcmlint_smoke build tag, so
// normal builds and tests never see it, while
//
//	go vet -vettool=$PWD/apcm-lint -tags apcmlint_smoke ./internal/lint/smoke
//
// must exit nonzero with seven diagnostics — one from each of the six
// analyzers, plus a second fsyncorder seed for the staged-commit shape.
// `make lint-smoke` checks that every analyzer apcm-lint -flags names
// appears among the findings, and CI runs it as a required step (see
// .github/workflows/ci.yml): a lint gate that cannot fail is
// indistinguishable from no gate.
package smoke

import "sync"

type scratch struct{ n int }

var pool sync.Pool

// Registry mimics the metrics registry by name, which is how the
// metricname analyzer matches registration calls.
type Registry struct{}

func (r *Registry) Counter(name, help string) {}

// hotDefer seeds a hotpathalloc violation: defer in a hot path.
//
//apcm:hotpath
func hotDefer(f func()) {
	defer f()
}

// leakScratch seeds a scratchrelease violation: the early return path
// never puts t back.
func leakScratch(cond bool) int {
	t := pool.Get().(*scratch)
	if cond {
		return 0
	}
	pool.Put(t)
	return t.n
}

// badMetric seeds a metricname violation: a registration without the
// apcm_ prefix.
func badMetric(r *Registry) {
	r.Counter("smoke_bad_total", "not apcm_-prefixed")
}

// locker hosts the lockorder seed's mutex.
type locker struct{ mu sync.Mutex }

// badRelock seeds a lockorder violation: acquiring a mutex already held
// on the same path (Go mutexes are not reentrant).
func badRelock(l *locker) {
	l.mu.Lock()
	l.mu.Lock()
	l.mu.Unlock()
	l.mu.Unlock()
}

// fireAndForget seeds a goroutinelife violation: the spawned goroutine
// has no join/stop edge and no //apcm:detached annotation.
func fireAndForget(f func()) {
	go func() { f() }()
}

// Log mimics the commit log by type name, which is how the fsyncorder
// analyzer matches Append/Sync/WaitCommitted commit calls.
type Log struct{}

func (*Log) Append(rec []byte) (uint64, error) { return 0, nil }
func (*Log) Stage(rec []byte) (uint64, error)  { return 0, nil }

type wire struct{}

func (*wire) send(b []byte) bool { return true }

// leakyDeliver seeds an fsyncorder violation: the emission precedes the
// commit, so a crash between them delivers an uncommitted record.
//
//apcm:durable
func leakyDeliver(l *Log, w *wire, b []byte) {
	w.send(b)
	l.Append(b)
}

// stagedDeliver seeds the staged-commit fsyncorder violation: Stage
// assigns the offset but commits nothing, so the emission still
// precedes the commit.
//
//apcm:durable
func stagedDeliver(l *Log, w *wire, b []byte) {
	l.Stage(b)
	w.send(b)
}
