package apcm_test

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sort"
	"testing"
	"testing/iotest"

	"github.com/streammatch/apcm"
	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/trace"
	"github.com/streammatch/apcm/workload"
)

// loadTestTrace builds an in-memory expression trace plus a probe event
// set from the default workload generator.
func loadTestTrace(t testing.TB, nsubs, nevents int) ([]byte, []*expr.Event) {
	t.Helper()
	p := workload.Default()
	p.Seed = 17
	g, err := workload.New(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteExpressions(&buf, g.Expressions(nsubs)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), g.Events(nevents)
}

func sortedIDs(ids []expr.ID) []expr.ID {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// loadSequential is the restore oracle: one ReadExpression and one
// Subscribe per record, no chunking, slab decoding or insert goroutine. Like
// LoadSubscriptions it keeps the prefix before a failure and advances
// the id allocator past it (by drawing ids until NewID clears the
// largest one loaded).
func loadSequential(e *apcm.Engine, data []byte) (int, error) {
	tr, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	n := 0
	var maxID expr.ID
	defer func() {
		for e.NewID() < maxID {
		}
	}()
	for {
		x, err := tr.ReadExpression()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if err := e.Subscribe(x); err != nil {
			return n, err
		}
		maxID = max(maxID, x.ID)
		n++
	}
}

// checkLoadEquivalence loads data into a fresh engine through load and
// verifies count, Len, id-allocator advance and match results against
// an engine filled by the sequential oracle.
func checkLoadEquivalence(t *testing.T, data []byte, events []*expr.Event,
	load func(e *apcm.Engine, data []byte) (int, error)) {
	t.Helper()
	ref := apcm.MustNew(apcm.Options{Workers: 1})
	defer ref.Close()
	want, err := loadSequential(ref, data)
	if err != nil {
		t.Fatal(err)
	}

	eng := apcm.MustNew(apcm.Options{Workers: 1})
	defer eng.Close()
	got, err := load(eng, data)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || eng.Len() != ref.Len() {
		t.Fatalf("loaded %d (Len %d), sequential loaded %d (Len %d)",
			got, eng.Len(), want, ref.Len())
	}
	if eng.NewID() != ref.NewID() {
		t.Fatal("id allocators diverged after load")
	}
	eng.Prepare()
	for i, ev := range events {
		a := sortedIDs(eng.Match(ev))
		b := sortedIDs(ref.Match(ev))
		if len(a) != len(b) {
			t.Fatalf("event %d: %d matches vs sequential %d", i, len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("event %d: match %d is %d vs sequential %d", i, j, a[j], b[j])
			}
		}
	}
}

// atProcs runs fn as one subtest per GOMAXPROCS setting. The restore
// takes the same code path at every setting, but the interleaving of
// its reader and insert goroutines differs.
func atProcs(t *testing.T, fn func(t *testing.T)) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			fn(t)
		})
	}
}

// TestLoadSubscriptionsChunked: the restore — slab decode on the reader,
// 512-record SubscribeBulk chunks on the insert goroutine — is
// observationally identical to the sequential loop.
func TestLoadSubscriptionsChunked(t *testing.T) {
	data, events := loadTestTrace(t, 3000, 200)
	atProcs(t, func(t *testing.T) {
		checkLoadEquivalence(t, data, events, func(e *apcm.Engine, data []byte) (int, error) {
			return e.LoadSubscriptions(bytes.NewReader(data))
		})
	})
}

// TestLoadSubscriptionsPipelined: the same equivalence when the source
// yields one byte per Read, so the reader stalls mid-record while the
// insert goroutine drains the chunks queued ahead of it.
func TestLoadSubscriptionsPipelined(t *testing.T) {
	data, events := loadTestTrace(t, 3000, 200)
	atProcs(t, func(t *testing.T) {
		checkLoadEquivalence(t, data, events, func(e *apcm.Engine, data []byte) (int, error) {
			return e.LoadSubscriptions(iotest.OneByteReader(bytes.NewReader(data)))
		})
	})
}

// loadPartialCases holds a loader to the partial-failure contract under
// three shapes: a duplicate id mid-trace (insert failure), a truncated
// tail (read failure), and a duplicate id in the fourth 512-record chunk
// of a 3 000-record trace. Every shape must keep exactly the prefix
// before the failing record, report its size, and advance the id
// allocator past it.
func loadPartialCases(t *testing.T, load func(e *apcm.Engine, data []byte) (int, error)) {
	t.Helper()
	xs := []*expr.Expression{
		expr.MustNew(700, expr.Eq(1, 1)),
		expr.MustNew(800, expr.Eq(2, 2)),
		expr.MustNew(700, expr.Eq(3, 3)), // duplicate id: Subscribe fails here
		expr.MustNew(900, expr.Eq(4, 4)),
	}
	var buf bytes.Buffer
	if err := writeExpressionTrace(&buf, xs); err != nil {
		t.Fatal(err)
	}

	eng := apcm.MustNew(apcm.Options{Workers: 1})
	defer eng.Close()
	n, err := load(eng, buf.Bytes())
	if err == nil {
		t.Fatal("duplicate-id trace loaded without error")
	}
	if n != 2 || eng.Len() != 2 {
		t.Fatalf("loaded %d (Len %d) before the duplicate, want 2", n, eng.Len())
	}
	if id := eng.NewID(); id <= 800 {
		t.Fatalf("NewID = %d after loading ids 700, 800, want > 800", id)
	}

	var clean bytes.Buffer
	if err := writeExpressionTrace(&clean, []*expr.Expression{xs[0], xs[1], xs[3]}); err != nil {
		t.Fatal(err)
	}
	trunc := apcm.MustNew(apcm.Options{Workers: 1})
	defer trunc.Close()
	n, err = load(trunc, clean.Bytes()[:clean.Len()-3])
	if err == nil {
		t.Fatal("truncated trace loaded without error")
	}
	if n != 2 || trunc.Len() != 2 {
		t.Fatalf("loaded %d (Len %d) from the truncated trace, want 2", n, trunc.Len())
	}
	if id := trunc.NewID(); id <= 800 {
		t.Fatalf("NewID = %d after a truncated load of ids 700, 800, want > 800", id)
	}

	// Record 1 700 repeats record 6's id: chunks 1–3 load whole, chunk 4
	// up to the duplicate, and nothing after it.
	p := workload.Default()
	p.Seed = 19
	long := workload.MustNew(p).Expressions(3000)
	dup := *long[1699]
	dup.ID = long[5].ID
	long[1699] = &dup
	var lbuf bytes.Buffer
	if err := writeExpressionTrace(&lbuf, long); err != nil {
		t.Fatal(err)
	}
	multi := apcm.MustNew(apcm.Options{Workers: 1})
	defer multi.Close()
	n, err = load(multi, lbuf.Bytes())
	if err == nil {
		t.Fatal("multi-chunk duplicate-id trace loaded without error")
	}
	if n != 1699 || multi.Len() != 1699 {
		t.Fatalf("loaded %d (Len %d) before record 1700's duplicate, want 1699", n, multi.Len())
	}
	var maxID expr.ID
	for _, x := range long[:1699] {
		maxID = max(maxID, x.ID)
	}
	if id := multi.NewID(); id <= maxID {
		t.Fatalf("NewID = %d after loading ids up to %d", id, maxID)
	}
	for i, x := range long {
		if i == 1699 {
			continue
		}
		if got, want := multi.Unsubscribe(x.ID), i < 1699; got != want {
			t.Fatalf("record %d (id %d): loaded = %v, want %v", i+1, x.ID, got, want)
		}
	}
}

func TestLoadSubscriptionsChunkedPartial(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		loadPartialCases(t, func(e *apcm.Engine, data []byte) (int, error) {
			return e.LoadSubscriptions(bytes.NewReader(data))
		})
	})
}

// TestLoadSubscriptionsPipelinedPartial holds the one-byte-read source
// of TestLoadSubscriptionsPipelined to the partial-failure contract.
func TestLoadSubscriptionsPipelinedPartial(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		loadPartialCases(t, func(e *apcm.Engine, data []byte) (int, error) {
			return e.LoadSubscriptions(iotest.OneByteReader(bytes.NewReader(data)))
		})
	})
}

// TestLoadSubscriptionsSequentialPartial holds the oracle to the same
// partial-failure contract as the loader it checks.
func TestLoadSubscriptionsSequentialPartial(t *testing.T) {
	loadPartialCases(t, loadSequential)
}

// TestSubscribeBulk: bulk subscription is Subscribe in a loop with
// batch locking — same results, same stop-at-first-failure contract.
func TestSubscribeBulk(t *testing.T) {
	p := workload.Default()
	p.Seed = 23
	g := workload.MustNew(p)
	xs := g.Expressions(2000)
	events := g.Events(100)

	ref := apcm.MustNew(apcm.Options{Workers: 1})
	defer ref.Close()
	for _, x := range xs {
		if err := ref.Subscribe(x); err != nil {
			t.Fatal(err)
		}
	}
	eng := apcm.MustNew(apcm.Options{Workers: 1})
	defer eng.Close()
	if n, err := eng.SubscribeBulk(xs); err != nil || n != len(xs) {
		t.Fatalf("SubscribeBulk = %d, %v, want %d, nil", n, err, len(xs))
	}
	if eng.Len() != ref.Len() {
		t.Fatalf("Len %d vs per-call %d", eng.Len(), ref.Len())
	}
	eng.Prepare()
	ref.Prepare()
	for i, ev := range events {
		a, b := sortedIDs(eng.Match(ev)), sortedIDs(ref.Match(ev))
		if len(a) != len(b) {
			t.Fatalf("event %d: %d matches vs %d", i, len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("event %d: match %d is %d vs %d", i, j, a[j], b[j])
			}
		}
	}
}

func TestSubscribeBulkPartialFailure(t *testing.T) {
	eng := apcm.MustNew(apcm.Options{Workers: 1})
	defer eng.Close()
	xs := []*expr.Expression{
		expr.MustNew(1, expr.Eq(1, 1)),
		expr.MustNew(2, expr.Eq(2, 2)),
		expr.MustNew(1, expr.Eq(3, 3)), // duplicate
		expr.MustNew(3, expr.Eq(4, 4)),
	}
	n, err := eng.SubscribeBulk(xs)
	if err == nil {
		t.Fatal("duplicate id subscribed without error")
	}
	if n != 2 || eng.Len() != 2 {
		t.Fatalf("SubscribeBulk inserted %d (Len %d), want 2", n, eng.Len())
	}
}

func TestSubscribeBulkNormalize(t *testing.T) {
	eng := apcm.MustNew(apcm.Options{Workers: 1, Normalize: true})
	defer eng.Close()
	xs := []*expr.Expression{
		expr.MustNew(1, expr.Eq(1, 1)),
		expr.MustNew(2, expr.Eq(1, 1), expr.Eq(1, 2)), // unsatisfiable
		expr.MustNew(3, expr.Eq(2, 2)),
	}
	n, err := eng.SubscribeBulk(xs)
	if err != apcm.ErrUnsatisfiable {
		t.Fatalf("err = %v, want ErrUnsatisfiable", err)
	}
	if n != 1 || eng.Len() != 1 {
		t.Fatalf("SubscribeBulk inserted %d (Len %d), want 1", n, eng.Len())
	}
}

// TestSubscribeBulkThenAppendCompiled: bulk inserts into an already
// compiled cluster must be absorbed (batch append or recompile) and
// stay matchable.
func TestSubscribeBulkThenAppendCompiled(t *testing.T) {
	eng := apcm.MustNew(apcm.Options{Workers: 1})
	defer eng.Close()
	var xs []*expr.Expression
	for i := expr.ID(1); i <= 64; i++ {
		xs = append(xs, expr.MustNew(i, expr.Eq(1, expr.Value(i%4)), expr.Ge(2, 0)))
	}
	if n, err := eng.SubscribeBulk(xs[:48]); err != nil || n != 48 {
		t.Fatalf("first batch: %d, %v", n, err)
	}
	eng.Prepare() // compile
	if n, err := eng.SubscribeBulk(xs[48:]); err != nil || n != 16 {
		t.Fatalf("second batch: %d, %v", n, err)
	}
	got := sortedIDs(eng.Match(expr.MustEvent(expr.P(1, 1), expr.P(2, 5))))
	var want []expr.ID
	for i := expr.ID(1); i <= 64; i++ {
		if i%4 == 1 {
			want = append(want, i)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("matched %d subscriptions after compiled append, want %d: %v", len(got), len(want), got)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("match %d = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestMemBytesTracksHeap checks that Stats().MemBytes — the
// apcm_mem_bytes gauge — accounts for what the engine actually holds: on
// a seeded restore of 20 000 subscriptions it must land within ±25 % of
// the live-heap growth across LoadSubscriptions and Prepare.
func TestMemBytesTracksHeap(t *testing.T) {
	p := workload.Default()
	p.Seed = 1
	var snap bytes.Buffer
	if err := trace.WriteExpressions(&snap, workload.MustNew(p).Expressions(20000)); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	e := apcm.MustNew(apcm.Options{})
	defer e.Close()
	if _, err := e.LoadSubscriptions(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	e.Prepare()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	heap := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	got := e.Stats().MemBytes
	ratio := float64(got) / float64(heap)
	t.Logf("MemBytes %d, heap growth %d (ratio %.2f)", got, heap, ratio)
	if ratio < 0.75 || ratio > 1.25 {
		t.Fatalf("MemBytes %d is %.2f× the heap growth %d, want within ±25%%", got, ratio, heap)
	}
}
