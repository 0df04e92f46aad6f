package bench

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"github.com/streammatch/apcm"
	"github.com/streammatch/apcm/shard"
	"github.com/streammatch/apcm/trace"
	"github.com/streammatch/apcm/workload"
)

// E20: cold-start restore. At millions of subscriptions the restart
// path — LoadSubscriptions + compile — dominates failover downtime
// (DESIGN §11.3), so this experiment measures restore wall-clock and
// throughput for one snapshot replayed through the three restore
// paths: the plain one-Subscribe-per-record loop kept as the baseline
// (loadSequential), the engine restore, and a 4-shard group restoring
// into quarter-size trees. The last two run one loop, in package
// coldstart: slab decode on the calling goroutine, chunked bulk insert
// on one goroutine per lane — one lane for the engine, one per shard
// for the group. The go-test twin BenchmarkLoadSubscriptions runs the
// last two.

func init() {
	register(e20())
}

func e20() Experiment {
	return Experiment{
		ID:     "E20",
		Title:  "Cold-start restore: sequential vs optimized vs sharded",
		Expect: "the optimized restore holds a constant gap over the sequential loop (fewer allocations, batch inserts); the group widens with scale as per-shard trees stay small (ours: beyond-paper cold-start floor)",
		Run: func(cfg Config) error {
			cfg.sanitize()
			// At -scale 50 the size axis is 1M, 2.5M and 5M
			// subscriptions — the regimes where restart downtime is
			// measured in seconds.
			sizes := []int{
				cfg.n(20000, 600),
				cfg.n(50000, 800),
				cfg.n(100000, 1000),
			}
			p := baseParams(cfg.Seed)
			p.PlantPoolSize = 65536

			t := NewTable("E20: cold-start restore, snapshot → ready engine",
				"subs", "path", "wall s", "subs/s", "vs sequential")
			for _, nsubs := range sizes {
				g, err := workload.New(p)
				if err != nil {
					return err
				}
				var buf bytes.Buffer
				tw, err := trace.NewWriter(&buf, trace.KindExpressions, nsubs)
				if err != nil {
					return err
				}
				for i := 0; i < nsubs; i++ {
					if err := tw.WriteExpression(g.Expression()); err != nil {
						return err
					}
				}
				if err := tw.Close(); err != nil {
					return err
				}
				data := buf.Bytes()

				restore := func(load func([]byte) (int, error)) (time.Duration, error) {
					start := time.Now()
					n, err := load(data)
					d := time.Since(start)
					if err != nil {
						return 0, err
					}
					if n != nsubs {
						return 0, fmt.Errorf("restored %d of %d subscriptions", n, nsubs)
					}
					return d, nil
				}
				paths := []struct {
					name string
					load func([]byte) (int, error)
				}{
					{"sequential", func(data []byte) (int, error) {
						e, err := apcm.New(apcm.Options{Workers: cfg.Workers, Metrics: cfg.Metrics})
						if err != nil {
							return 0, err
						}
						defer e.Close()
						return loadSequential(e, bytes.NewReader(data))
					}},
					{"engine", func(data []byte) (int, error) {
						e, err := apcm.New(apcm.Options{Workers: cfg.Workers, Metrics: cfg.Metrics})
						if err != nil {
							return 0, err
						}
						defer e.Close()
						return e.LoadSubscriptions(bytes.NewReader(data))
					}},
					{"group=4", func(data []byte) (int, error) {
						grp, err := shard.New(shard.Options{Shards: 4, Workers: cfg.Workers, Metrics: cfg.Metrics})
						if err != nil {
							return 0, err
						}
						defer grp.Close()
						return grp.LoadSubscriptions(bytes.NewReader(data))
					}},
				}
				var base float64
				for _, path := range paths {
					d, err := restore(path.load)
					if err != nil {
						return fmt.Errorf("E20 %d subs via %s: %w", nsubs, path.name, err)
					}
					rate := float64(nsubs) / d.Seconds()
					if path.name == "sequential" {
						base = rate
					}
					speedup := "-"
					if base > 0 {
						speedup = fmt.Sprintf("%.2fx", rate/base)
					}
					t.AddRow(fmt.Sprintf("%d", nsubs), path.name,
						fmt.Sprintf("%.2f", d.Seconds()), FormatRate(rate), speedup)
				}
			}
			emit(cfg, t)
			return nil
		},
	}
}

// loadSequential is E20's baseline restore: one ReadExpression and one
// Subscribe per record, with no chunking, slab decoding or insert
// goroutine.
func loadSequential(e *apcm.Engine, r io.Reader) (int, error) {
	tr, err := trace.NewReader(r)
	if err != nil {
		return 0, err
	}
	n := 0
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
		n++
	}
}
