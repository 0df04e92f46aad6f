package apcm_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"github.com/streammatch/apcm"
	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/shard"
)

// FuzzLoadSubscriptions feeds arbitrary bytes to Engine.LoadSubscriptions:
// corrupt snapshots must return an error (keeping whatever prefix loaded
// cleanly), never panic, and never corrupt the engine — after any load
// attempt the engine must still subscribe and match correctly. The same
// bytes go through a 3-shard shard.Group, the restore loop's other
// caller: it must report exactly what it holds, and a clean load must
// hold what the engine's clean load holds.
func FuzzLoadSubscriptions(f *testing.F) {
	// Seed: a valid snapshot produced by SaveSubscriptions.
	seed := apcm.MustNew(apcm.Options{Workers: 1})
	for i := expr.ID(1); i <= 5; i++ {
		if err := seed.Subscribe(expr.MustNew(i, expr.Eq(1, expr.Value(i)))); err != nil {
			f.Fatal(err)
		}
	}
	var valid bytes.Buffer
	if err := seed.SaveSubscriptions(&valid); err != nil {
		f.Fatal(err)
	}
	seed.Close()
	f.Add(valid.Bytes())
	f.Add([]byte{})
	f.Add([]byte("APCMTRC1"))
	f.Add([]byte("APCMTRC1E\x01\x02\x00\x00")) // event trace: wrong kind
	f.Add(valid.Bytes()[:valid.Len()-2])       // truncated final record
	f.Add(append([]byte("APCMTRC1X"),          // absurd declared count
		binary.AppendUvarint(nil, 1<<63)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		e := apcm.MustNew(apcm.Options{Workers: 1})
		defer e.Close()
		n, err := e.LoadSubscriptions(bytes.NewReader(data))
		if n < 0 || n > e.Len() {
			t.Fatalf("loaded %d subscriptions but engine holds %d", n, e.Len())
		}
		if err == nil && n != e.Len() {
			t.Fatalf("clean load of %d left engine with %d", n, e.Len())
		}
		// The engine must remain fully usable regardless of the outcome.
		id, serr := e.SubscribePreds(expr.Eq(7, 42))
		if serr != nil {
			t.Fatalf("subscribe after load: %v", serr)
		}
		got := e.Match(expr.MustEvent(expr.P(7, 42)))
		found := false
		for _, g := range got {
			found = found || g == id
		}
		if !found {
			t.Fatalf("engine lost the post-load subscription (err was %v)", err)
		}
		if !e.Unsubscribe(id) {
			t.Fatal("unsubscribe after load failed")
		}

		g := shard.MustNew(shard.Options{Shards: 3, Workers: 1})
		defer g.Close()
		gn, gerr := g.LoadSubscriptions(bytes.NewReader(data))
		if gn != g.Len() {
			t.Fatalf("group loaded %d subscriptions but holds %d (err %v)", gn, g.Len(), gerr)
		}
		if err == nil && gerr == nil && gn != n {
			t.Fatalf("clean loads disagree: group %d, engine %d", gn, n)
		}
	})
}
