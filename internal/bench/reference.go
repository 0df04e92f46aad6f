package bench

import (
	"fmt"
	"time"

	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/internal/betree"
	"github.com/streammatch/apcm/internal/core"
	"github.com/streammatch/apcm/internal/counting"
	"github.com/streammatch/apcm/internal/kindex"
	"github.com/streammatch/apcm/internal/match"
	"github.com/streammatch/apcm/internal/scan"
)

// Reference is one row of a comparison table: a named matcher
// constructor. New builds an empty index; clusterSize, when positive,
// bounds the BE-Tree pools of the tree-based matchers (E7, E16) and is
// ignored by the flat ones.
type Reference struct {
	Name string
	New  func(clusterSize int) match.Matcher
}

// References lists every matcher the comparison tables measure: the
// paper's five baselines and A-PCM, the rows of its comparison figures
// (E1–E5, E9, E11, E12). The order is table order.
func References() []Reference {
	return []Reference{
		{"Scan", func(int) match.Matcher { return scan.New() }},
		{"Counting", func(int) match.Matcher { return counting.New() }},
		{"k-index", func(int) match.Matcher { return kindex.New() }},
		{"BE-Tree", func(size int) match.Matcher {
			cfg := betree.DefaultConfig()
			if size > 0 {
				cfg.MaxPool = size
			}
			return betree.New(cfg)
		}},
		{"PCM", compressed(func(c *core.Config) { c.Mode = core.ModeCompressed })},
		{"A-PCM", compressed(nil)},
	}
}

// compressed returns the constructor of a core.Matcher in the default
// configuration with adjust applied.
func compressed(adjust func(*core.Config)) func(int) match.Matcher {
	return func(size int) match.Matcher {
		cfg := core.DefaultConfig()
		if size > 0 {
			cfg.Tree.MaxPool = size
		}
		if adjust != nil {
			adjust(&cfg)
		}
		return core.New(cfg)
	}
}

// refs picks the named rows from References, in the order given.
func refs(names ...string) []Reference {
	all := References()
	out := make([]Reference, len(names))
	for i, name := range names {
		j := 0
		for j < len(all) && all[j].Name != name {
			j++
		}
		if j == len(all) {
			panic("bench: no reference matcher " + name)
		}
		out[i] = all[j]
	}
	return out
}

// build indexes xs into ref's matcher and compiles every cluster of a
// compressed one up front, as Engine.Prepare does.
func build(ref Reference, clusterSize int, xs []*expr.Expression) (match.Matcher, error) {
	m := ref.New(clusterSize)
	for _, x := range xs {
		if err := m.Insert(x); err != nil {
			return nil, fmt.Errorf("%s: %w", ref.Name, err)
		}
	}
	if cm, ok := m.(*core.Matcher); ok {
		cm.PrepareAll()
	}
	return m, nil
}

// loop is the one sequential match loop every comparison row runs
// through, so rows differ only in the matcher: each event of a batch is
// matched with MatchAppend, in the order given. Experiments that want
// locality order sort their event lists first (osr.Reorder).
type loop struct {
	m match.Matcher

	// After run, ids[offs[2i]:offs[2i+1]] is the batch's event i's result.
	ids  []expr.ID
	offs []int32
}

func newLoop(m match.Matcher) *loop { return &loop{m: m} }

// run matches one batch.
func (l *loop) run(batch []*expr.Event) {
	if cap(l.offs) < 2*len(batch) {
		l.offs = make([]int32, 2*len(batch))
	}
	l.ids = l.ids[:0]
	for i, ev := range batch {
		l.offs[2*i] = int32(len(l.ids))
		l.ids = l.m.MatchAppend(l.ids, ev)
		l.offs[2*i+1] = int32(len(l.ids))
	}
}

// measureRow builds ref over xs and returns the matcher with its
// sustained events/s through the loop, in batches of 64.
func measureRow(ref Reference, clusterSize int, xs []*expr.Expression, events []*expr.Event, minDur time.Duration) (match.Matcher, float64, error) {
	m, err := build(ref, clusterSize, xs)
	if err != nil {
		return nil, 0, err
	}
	rate, _ := replay(events, 64, minDur, newLoop(m).run)
	return m, rate, nil
}

// measureRows returns each row's throughput on events over xs.
func measureRows(rows []Reference, xs []*expr.Expression, events []*expr.Event, minDur time.Duration) ([]float64, error) {
	rates := make([]float64, len(rows))
	for i, ref := range rows {
		var err error
		if _, rates[i], err = measureRow(ref, 0, xs, events, minDur); err != nil {
			return nil, err
		}
	}
	return rates, nil
}

// rowHeaders names one throughput column per row.
func rowHeaders(rows []Reference) []string {
	h := make([]string, len(rows))
	for i, ref := range rows {
		h[i] = ref.Name + " ev/s"
	}
	return h
}
