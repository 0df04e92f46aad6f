package coldstart

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"

	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/trace"
)

// traceOf writes n single-predicate expressions with ids 1..n.
func traceOf(t *testing.T, n int) []byte {
	t.Helper()
	xs := make([]*expr.Expression, n)
	for i := range xs {
		xs[i] = expr.MustNew(expr.ID(i+1), expr.Eq(expr.AttrID(i%7), expr.Value(i)))
	}
	var buf bytes.Buffer
	if err := trace.WriteExpressions(&buf, xs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// recorder is an Insert that keeps every id it is handed, in call
// order, and fails on the record with id failAt (0: never).
type recorder struct {
	mu     sync.Mutex
	ids    []expr.ID
	chunks int
	failAt expr.ID
}

var errInsert = errors.New("insert failed")

func (r *recorder) insert(xs []*expr.Expression) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(xs) == 0 || len(xs) > chunkRecords {
		return 0, errors.New("chunk size out of range")
	}
	r.chunks++
	for i, x := range xs {
		if x.ID == r.failAt {
			return i, errInsert
		}
		r.ids = append(r.ids, x.ID)
	}
	return len(xs), nil
}

// TestLoadRoutesInTraceOrder: every record reaches the lane its route
// names, and each lane sees its records in trace order.
func TestLoadRoutesInTraceOrder(t *testing.T) {
	const n = 5000
	recs := make([]recorder, 3)
	lanes := make([]Insert, len(recs))
	for i := range recs {
		lanes[i] = recs[i].insert
	}
	got, maxID, err := Load(bytes.NewReader(traceOf(t, n)), nil, lanes,
		func(x *expr.Expression) int { return int(x.ID % 3) })
	if err != nil || got != n || maxID != n {
		t.Fatalf("Load = %d, max id %d, %v; want %d, %d, nil", got, maxID, err, n, n)
	}
	for l := range recs {
		prev := expr.ID(0)
		for _, id := range recs[l].ids {
			if int(id%3) != l || id <= prev {
				t.Fatalf("lane %d got id %d after %d", l, id, prev)
			}
			prev = id
		}
	}
}

// TestLoadErrors: a lane's error beats the reader's, and the count is
// what the lanes inserted.
func TestLoadErrors(t *testing.T) {
	data := traceOf(t, 2000)
	truncated := data[:len(data)-1]

	rec := recorder{}
	got, _, err := Load(bytes.NewReader(truncated), nil, []Insert{rec.insert}, nil)
	if err == nil || errors.Is(err, errInsert) || got != 1999 {
		t.Fatalf("truncated: Load = %d, %v; want 1999 and a read error", got, err)
	}

	rec = recorder{failAt: 700}
	got, _, err = Load(bytes.NewReader(truncated), nil, []Insert{rec.insert}, nil)
	if !errors.Is(err, errInsert) || got != 699 {
		t.Fatalf("lane failure on a truncated trace: Load = %d, %v; want 699, %v", got, err, errInsert)
	}

	_, _, err = Load(strings.NewReader("APCMTRC1E\x00"), nil, []Insert{rec.insert}, nil)
	if err == nil {
		t.Fatal("event trace loaded as expressions")
	}
}

// TestLoadStopsWhenEveryLaneFailed: once no lane can insert, reading
// stops instead of decoding the rest of the trace.
func TestLoadStopsWhenEveryLaneFailed(t *testing.T) {
	const n = 50000
	recs := []recorder{{failAt: 2}, {failAt: 1}}
	_, maxID, err := Load(bytes.NewReader(traceOf(t, n)), nil,
		[]Insert{recs[0].insert, recs[1].insert},
		func(x *expr.Expression) int { return int(x.ID % 2) })
	if !errors.Is(err, errInsert) {
		t.Fatalf("err = %v, want %v", err, errInsert)
	}
	// The reader runs at most the queued chunks plus the one it fills
	// ahead of each failed lane.
	if limit := expr.ID(2 * (laneQueue + 2) * chunkRecords); maxID > limit {
		t.Fatalf("read up to id %d of %d after both lanes failed, want <= %d", maxID, n, limit)
	}
}
