package core

import (
	"runtime"
	"testing"
	"unsafe"

	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/internal/betree"
	"github.com/streammatch/apcm/internal/bitset"
	"github.com/streammatch/apcm/workload"
)

// TestAccountedStructSizes pins the struct sizes memoryBytes and
// clusterArena.bytes count with.
func TestAccountedStructSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"compiled", unsafe.Sizeof(compiled{}), compiledSize},
		{"attrGroup", unsafe.Sizeof(attrGroup{}), groupSize},
		{"eqEntry", unsafe.Sizeof(eqEntry{}), eqEntrySize},
		{"dictEntry", unsafe.Sizeof(dictEntry{}), dictSize},
		{"bitset.Posting", unsafe.Sizeof(bitset.Posting{}), postingSize},
		{"bitset.Bitset", unsafe.Sizeof(bitset.Bitset{}), bitsetSize},
		{"clusterArena", unsafe.Sizeof(clusterArena{}), arenaSize},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, accounted as %d", c.name, c.got, c.want)
		}
	}
}

// compiledHeapBudget is the live heap, in bytes per member, that the
// compiled clusters of TestCompiledClusterHeapBudget's pool set may
// hold: 1 560 B, measured before the lead lists, plus 15 %. The lead
// lists took the measured value to 1 577 B; the budget was left where
// it was rather than raised with it.
const compiledHeapBudget = 1560 * 1.15

// TestCompiledClusterHeapBudget is the heap regression gate of the
// compiled layout: it compiles every compressible pool of a seeded
// heterogeneous 20 000-subscription set and bounds the live heap the
// compiled clusters hold per member. Re-introducing a Go map per group
// (the pre-arena equality-union map, say) or a value-indexed table per
// group breaks the budget.
func TestCompiledClusterHeapBudget(t *testing.T) {
	p := workload.Default()
	p.Seed = 3
	m := New(DefaultConfig())
	for _, x := range workload.MustNew(p).Expressions(20000) {
		if err := m.Insert(x); err != nil {
			t.Fatal(err)
		}
	}
	var pools []*betree.Pool
	members := 0
	m.tree.Pools(func(pl *betree.Pool) {
		if len(pl.Exprs) >= m.cfg.MinCompressSize {
			pools = append(pools, pl)
			members += len(pl.Exprs)
		}
	})
	built := make([]*compiled, len(pools))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i, pl := range pools {
		built[i] = compile(pl)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(built)
	perMember := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(members)
	t.Logf("%d clusters, %d members: %.0f B/member live (budget %.0f)", len(pools), members, perMember, compiledHeapBudget)
	if perMember > compiledHeapBudget {
		t.Fatalf("compiled clusters hold %.0f B/member, budget %.0f", perMember, compiledHeapBudget)
	}
}

// TestMemoryBytesCountsMaintenance checks that memoryBytes sees storage
// incremental appends allocate outside the arena: new equality values
// grow the eq union and add postings past what finalize laid out.
func TestMemoryBytesCountsMaintenance(t *testing.T) {
	pool := &betree.Pool{}
	for i := 0; i < 32; i++ {
		pool.Exprs = append(pool.Exprs, expr.MustNew(expr.ID(i+1), expr.Eq(1, expr.Value(i%4))))
	}
	c := compile(pool)
	before := c.memoryBytes()
	for i := 0; i < 8; i++ {
		x := expr.MustNew(expr.ID(100+i), expr.Eq(1, expr.Value(1000+i)))
		pool.Exprs = append(pool.Exprs, x)
		pool.Gen++
		if !c.tryAppend(pool, x) {
			t.Fatal("append refused")
		}
	}
	// Eight new values: at least eight posting structs and eq entries.
	if grown := c.memoryBytes() - before; grown < 8*(postingSize+eqEntrySize) {
		t.Fatalf("memoryBytes grew %d bytes over 8 appended values", grown)
	}
	if h := c.heldBytes(); c.held != h {
		t.Fatalf("running held %d, walk %d", c.held, h)
	}
}
