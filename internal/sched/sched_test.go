package sched

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestRunCoversAllIndexes(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		p := NewPool(workers)
		for _, total := range []int{0, 1, 7, 64, 1000} {
			var hits = make([]atomic.Int32, total)
			p.Run(total, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if hits[i].Load() != 1 {
					t.Fatalf("workers=%d total=%d: index %d hit %d times", workers, total, i, hits[i].Load())
				}
			}
		}
		p.Close()
	}
}

func TestDefaultWorkerCount(t *testing.T) {
	p := NewPool(0)
	defer p.Close()
	if p.Workers() < 1 {
		t.Fatalf("Workers = %d", p.Workers())
	}
}

func TestConcurrentRuns(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var wg sync.WaitGroup
	var total atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Run(500, func(int) { total.Add(1) })
		}()
	}
	wg.Wait()
	if total.Load() != 8*500 {
		t.Fatalf("total = %d, want %d", total.Load(), 8*500)
	}
}

func TestRunAfterClose(t *testing.T) {
	p := NewPool(2)
	p.Close()
	var n atomic.Int32
	p.Run(10, func(int) { n.Add(1) })
	if n.Load() != 10 {
		t.Fatalf("Run after Close executed %d of 10", n.Load())
	}
}

func TestDoubleCloseSafe(t *testing.T) {
	p := NewPool(2)
	p.Close()
	p.Close()
}

func TestParallelismActuallyHappens(t *testing.T) {
	// The first item blocks until a second item starts, which only a
	// second lane can run: with a single lane this would hang.
	p := NewPool(4)
	defer p.Close()
	var started atomic.Int32
	second := make(chan struct{})
	p.Run(64, func(int) {
		switch started.Add(1) {
		case 1:
			<-second
		case 2:
			close(second)
		}
	})
	lanes := 0
	for _, n := range p.Stats().WorkerItems {
		if n > 0 {
			lanes++
		}
	}
	if lanes < 2 {
		t.Fatalf("only %d lanes ran items", lanes)
	}
}

func TestStatsAccounting(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	const total = 1000
	for r := 0; r < 4; r++ {
		p.Run(total, func(int) {})
	}
	st := p.Stats()
	if st.Workers != 3 {
		t.Fatalf("Workers = %d", st.Workers)
	}
	if st.Runs != 4 {
		t.Fatalf("Runs = %d, want 4", st.Runs)
	}
	if len(st.WorkerItems) != 4 { // 3 workers + caller lane
		t.Fatalf("WorkerItems lanes = %d, want 4", len(st.WorkerItems))
	}
	var sum int64
	for _, n := range st.WorkerItems {
		sum += n
	}
	if sum != 4*total {
		t.Fatalf("items executed = %d, want %d", sum, 4*total)
	}
	// Single-worker pools execute inline and count into the caller lane.
	p1 := NewPool(1)
	defer p1.Close()
	p1.Run(10, func(int) {})
	st1 := p1.Stats()
	if st1.WorkerItems[1] != 10 || st1.Runs != 1 {
		t.Fatalf("inline accounting: %+v", st1)
	}
}

func TestRunSteadyStateDoesNotAllocate(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var sink atomic.Int64
	fn := func(i int) { sink.Add(int64(i)) }
	for i := 0; i < 10; i++ {
		p.Run(128, fn) // warm the job pool
	}
	avg := testing.AllocsPerRun(100, func() { p.Run(128, fn) })
	// The job descriptor is pooled; tolerate the occasional sync.Pool
	// refill under GC but not per-run garbage.
	if avg > 0.5 {
		t.Fatalf("Run allocates %.2f objects per call in steady state", avg)
	}
}
