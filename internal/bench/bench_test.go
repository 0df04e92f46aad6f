package bench

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/internal/osr"
)

// tinyConfig runs experiments at minimum size: the tests verify the
// harness machinery (workload plumbing, engine lifecycle, table output),
// not performance numbers.
func tinyConfig(out *bytes.Buffer) Config {
	return Config{
		Out:        out,
		Scale:      0.02,
		Workers:    2,
		Seed:       1,
		MinMeasure: 5 * time.Millisecond,
	}
}

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 18 {
		t.Fatalf("registry has %d experiments, want 18", len(all))
	}
	seen := map[string]bool{}
	for i, e := range all {
		if e.ID == "" || e.Title == "" || e.Expect == "" || e.Run == nil {
			t.Fatalf("experiment %d incomplete: %+v", i, e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
	}
	for i := 1; i <= 19; i++ {
		if i == 17 || i == 18 {
			continue // deleted with the cross-event batch reuse and the layout switches
		}
		id := "E" + itoa(i)
		if _, ok := Get(id); !ok {
			t.Fatalf("experiment %s missing", id)
		}
	}
	if _, ok := Get("E99"); ok {
		t.Fatal("Get invented an experiment")
	}
}

func itoa(i int) string {
	if i >= 10 {
		return string(rune('0'+i/10)) + string(rune('0'+i%10))
	}
	return string(rune('0' + i))
}

func TestAllExperimentsRunAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke runs skipped in -short mode")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var out bytes.Buffer
			if err := e.Run(tinyConfig(&out)); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			s := out.String()
			if !strings.Contains(s, e.ID+":") {
				t.Fatalf("%s output missing its id header:\n%s", e.ID, s)
			}
			if len(strings.Split(strings.TrimSpace(s), "\n")) < 3 {
				t.Fatalf("%s output implausibly short:\n%s", e.ID, s)
			}
		})
	}
}

func TestTableCSV(t *testing.T) {
	var buf bytes.Buffer
	tab := NewTable("T: demo", "a", "b")
	tab.AddRow("1", `x,"y`)
	tab.FprintCSV(&buf)
	want := "# T: demo\na,b\n1,\"x,\"\"y\"\n"
	if buf.String() != want {
		t.Fatalf("CSV = %q, want %q", buf.String(), want)
	}
}

func TestCSVConfigRouting(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	cfg.CSV = true
	e, _ := Get("E9")
	if err := e.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), ",") || !strings.HasPrefix(buf.String(), "#") {
		t.Fatalf("CSV output not produced:\n%s", buf.String())
	}
}

func TestTableRendering(t *testing.T) {
	var buf bytes.Buffer
	tab := NewTable("T: demo", "col a", "b")
	tab.AddRow("1", "2")
	tab.AddRow("333333")       // short row padded
	tab.AddRow("4", "5", "66") // long row truncated
	tab.Fprint(&buf)
	s := buf.String()
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 6 {
		t.Fatalf("table has %d lines:\n%s", len(lines), s)
	}
	if lines[0] != "T: demo" {
		t.Fatalf("title line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "col a") {
		t.Fatalf("header line = %q", lines[1])
	}
	if strings.Contains(s, "66") {
		t.Fatal("overflow cell should be dropped")
	}
}

func TestFormatRate(t *testing.T) {
	cases := map[float64]string{
		3:       "3.00",
		233:     "233",
		23386:   "23.4k",
		2338630: "2.34M",
	}
	for in, want := range cases {
		if got := FormatRate(in); got != want {
			t.Errorf("FormatRate(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		512:     "512B",
		2048:    "2.0KiB",
		3 << 20: "3.00MiB",
		5 << 30: "5.00GiB",
	}
	for in, want := range cases {
		if got := FormatBytes(in); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestConfigSanitize(t *testing.T) {
	var c Config
	c.sanitize()
	if c.Scale != 1 || c.Seed == 0 || c.MinMeasure <= 0 || c.Out == nil {
		t.Fatalf("sanitize incomplete: %+v", c)
	}
	if c.n(1000, 10) != 1000 {
		t.Fatalf("n(1000) = %d", c.n(1000, 10))
	}
	c.Scale = 0.001
	if c.n(1000, 10) != 10 {
		t.Fatalf("floor not applied: %d", c.n(1000, 10))
	}
}

func TestReorderWindows(t *testing.T) {
	const window = 16
	_, events := gen(baseParams(1), 10, 50)
	orig := make([]string, len(events))
	for i, e := range events {
		orig[i] = e.String()
	}
	out := reorderWindows(events, window)
	if len(out) != len(events) {
		t.Fatal("length changed")
	}
	for i, e := range events {
		if e.String() != orig[i] {
			t.Fatal("input slice mutated")
		}
	}
	for off := 0; off < len(out); off += window {
		end := min(off+window, len(out))
		w := out[off:end]
		for i := 1; i < len(w); i++ {
			if osr.Less(w[i], w[i-1]) {
				t.Fatalf("window at %d not sorted: %s before %s", off, w[i-1], w[i])
			}
		}
		// Each window is a permutation of the same input window.
		held := make(map[*expr.Event]int, len(w))
		for _, e := range events[off:end] {
			held[e]++
		}
		for _, e := range w {
			if held[e]--; held[e] < 0 {
				t.Fatalf("window at %d holds an event from outside it: %s", off, e)
			}
		}
	}
}

// TestReferencesAgreeWithOracle runs every row of the reference list
// through the bench loop, in batches with adjacent duplicate events,
// and checks every event's result against MatchesEvent.
func TestReferencesAgreeWithOracle(t *testing.T) {
	p := baseParams(3)
	p.NumAttrs, p.Cardinality, p.EventAttrs = 25, 50, 8
	p.PredsMin, p.PredsMax = 1, 4
	p.MatchFraction, p.WNegated = 0.3, 0.05
	xs, events := gen(p, 1500, 200)
	for i := 0; i < len(events); i += 10 {
		events = slices.Insert(events, i, events[i])
	}
	for _, ref := range References() {
		m, err := build(ref, 0, xs)
		if err != nil {
			t.Fatal(err)
		}
		l := newLoop(m)
		matched := 0
		for off := 0; off < len(events); off += 64 {
			batch := events[off:min(off+64, len(events))]
			l.run(batch)
			for i, ev := range batch {
				got := slices.Clone(l.ids[l.offs[2*i]:l.offs[2*i+1]])
				slices.Sort(got)
				var want []expr.ID
				for _, x := range xs {
					if x.MatchesEvent(ev) {
						want = append(want, x.ID)
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s: event %s: got %v, oracle %v", ref.Name, ev, got, want)
				}
				matched += len(got)
			}
		}
		if matched == 0 {
			t.Fatalf("%s: workload matched nothing", ref.Name)
		}
	}
}

func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		in          []float64
		q1, med, q3 float64
	}{
		{[]float64{4, 1, 3, 2, 5}, 2, 3, 4},
		{[]float64{1, 2, 3, 4}, 1.75, 2.5, 3.25},
		{[]float64{7}, 7, 7, 7},
	} {
		in := append([]float64(nil), c.in...)
		q1, med, q3 := quartiles(in)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.in, q1, med, q3, c.q1, c.med, c.q3)
		}
		for i := range in {
			if in[i] != c.in[i] {
				t.Fatalf("quartiles reordered its input: %v", in)
			}
		}
	}
}
