// Benchmarks regenerating the paper's evaluation (Sect. 5): one benchmark
// per figure. Each measures a full distributed query evaluation and reports,
// besides ns/op, the experiment's own units — bytes and group rows
// transferred, and synchronization rounds — so the figure series can be read
// directly from `go test -bench=. -benchmem`. See EXPERIMENTS.md for a
// reference run and the paper-vs-measured comparison.
package skalla_test

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"skalla/internal/bench"
	"skalla/internal/gmdj"
	"skalla/internal/plan"
	"skalla/internal/relation"
	"skalla/internal/stats"
	"skalla/internal/tpc"
)

// benchConfig is a medium instance: large enough that the traffic shapes
// match the paper's, small enough for quick iterations.
func benchConfig() tpc.Config {
	return tpc.Config{Rows: 12000, Customers: 4000, Nations: 25, CitiesPerNation: 24, Clerks: 600, Seed: 1}
}

var (
	benchOnce sync.Once
	benchData *tpc.Dataset
)

func dataset(b *testing.B) *tpc.Dataset {
	b.Helper()
	benchOnce.Do(func() {
		d, err := tpc.Generate(benchConfig(), 8)
		if err != nil {
			panic(err)
		}
		benchData = d
	})
	return benchData
}

// runQuery executes the query once per iteration and reports traffic metrics
// from the last run: data-plane bytes (codec frames, deterministic) and
// control-plane bytes (envelopes and stream markers) separately.
func runQuery(b *testing.B, d *tpc.Dataset, n int, q gmdj.Query, opts plan.Options) {
	b.Helper()
	c, err := bench.NewTPCCluster(context.Background(), d, n, stats.DefaultLAN())
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var last *stats.Metrics
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.Coord.Execute(ctx, q, opts)
		if err != nil {
			b.Fatal(err)
		}
		last = res.Metrics
	}
	b.StopTimer()
	b.ReportMetric(float64(last.TotalDataBytes()), "data-bytes/op")
	b.ReportMetric(float64(last.TotalBytes()-last.TotalDataBytes()), "ctrl-bytes/op")
	b.ReportMetric(float64(last.TotalRows()), "group-rows/op")
	b.ReportMetric(float64(last.NumRounds()), "rounds")
}

// BenchmarkFig2GroupReduction is Fig. 2: the dependent two-operator query on
// the high-cardinality partition-aligned attribute, across participating
// site counts, without reduction vs. site-side vs. coordinator-side vs.
// both. Expect data-bytes to grow quadratically with sites on the
// no-reduction series and linearly once both reductions are on.
func BenchmarkFig2GroupReduction(b *testing.B) {
	d := dataset(b)
	q := bench.TwoPhaseQuery(bench.HighCardAttr, true)
	variants := []struct {
		name string
		opts plan.Options
	}{
		{"no-reduction", plan.None()},
		{"site-reduction", plan.Options{GroupReduceSite: true}},
		{"coord-reduction", plan.Options{GroupReduceCoord: true}},
		{"both-reductions", plan.Options{GroupReduceSite: true, GroupReduceCoord: true}},
	}
	for _, v := range variants {
		for _, n := range []int{2, 4, 8} {
			b.Run(fmt.Sprintf("%s/sites=%d", v.name, n), func(b *testing.B) {
				runQuery(b, d, n, q, v.opts)
			})
		}
	}
}

// BenchmarkFig3Coalescing is Fig. 3: the independent two-operator query,
// non-coalesced (3 rounds) vs. coalesced (2 rounds), at high and low
// grouping cardinality.
func BenchmarkFig3Coalescing(b *testing.B) {
	d := dataset(b)
	for _, card := range []struct {
		name string
		attr string
	}{{"high-card", bench.HighCardAttr}, {"low-card", bench.LowCardAttr}} {
		q := bench.TwoPhaseQuery(card.attr, false)
		for _, v := range []struct {
			name string
			opts plan.Options
		}{
			{"non-coalesced", plan.None()},
			{"coalesced", plan.Options{Coalesce: true}},
		} {
			for _, n := range []int{2, 4, 8} {
				b.Run(fmt.Sprintf("%s/%s/sites=%d", card.name, v.name, n), func(b *testing.B) {
					runQuery(b, d, n, q, v.opts)
				})
			}
		}
	}
}

// BenchmarkFig4SyncReduction is Fig. 4: the dependent (non-coalescible)
// query with and without synchronization reduction; with it, the plan
// becomes a single fully local round (Cor. 1).
func BenchmarkFig4SyncReduction(b *testing.B) {
	d := dataset(b)
	for _, card := range []struct {
		name string
		attr string
	}{{"high-card", bench.HighCardAttr}, {"low-card", bench.LowCardAlignedAttr}} {
		q := bench.TwoPhaseQuery(card.attr, true)
		for _, v := range []struct {
			name string
			opts plan.Options
		}{
			{"no-sync-reduction", plan.None()},
			{"sync-reduction", plan.Options{SyncReduce: true}},
		} {
			for _, n := range []int{2, 4, 8} {
				b.Run(fmt.Sprintf("%s/%s/sites=%d", card.name, v.name, n), func(b *testing.B) {
					runQuery(b, d, n, q, v.opts)
				})
			}
		}
	}
}

// BenchmarkFig5ScaleUp is Fig. 5: four sites, per-site data scaled ×1..×4,
// all optimizations vs. none. Both series grow linearly with data size; the
// optimized one at roughly half the cost.
func BenchmarkFig5ScaleUp(b *testing.B) {
	base := benchConfig()
	base.Rows = 4000
	base.Customers = 1600
	q := bench.TwoPhaseQuery(bench.HighCardAttr, true)
	for _, scale := range []int{1, 2, 4} {
		cfg := base
		cfg.Rows = base.Rows * scale
		cfg.Customers = base.Customers * scale
		d, err := tpc.Generate(cfg, 4)
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range []struct {
			name string
			opts plan.Options
		}{
			{"unoptimized", plan.None()},
			{"optimized", plan.All()},
		} {
			b.Run(fmt.Sprintf("%s/scale=%d", v.name, scale), func(b *testing.B) {
				runQuery(b, d, 4, q, v.opts)
			})
		}
	}
}

// BenchmarkFig5ConstantGroups is the Sect. 5.3 variant of Fig. 5: the data
// grows but the group domain is fixed.
func BenchmarkFig5ConstantGroups(b *testing.B) {
	base := benchConfig()
	base.Rows = 4000
	base.Customers = 1600
	q := bench.TwoPhaseQuery(bench.HighCardAttr, true)
	for _, scale := range []int{1, 2, 4} {
		cfg := base
		cfg.Rows = base.Rows * scale // customers fixed
		d, err := tpc.Generate(cfg, 4)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("optimized/scale=%d", scale), func(b *testing.B) {
			runQuery(b, d, 4, q, plan.All())
		})
	}
}

// BenchmarkWireCodec compares the column-major wire codec against per-payload
// gob encoding on an H_i-shaped relation (grouping key plus COUNT/AVG physical
// columns, the dominant payload of every synchronization round). The codec
// must come in well under gob — the acceptance bar is at least 30% fewer
// bytes — and bytes/op for both is reported so the margin is visible.
func BenchmarkWireCodec(b *testing.B) {
	// gobShadow has the same shape as relation.Relation but no GobEncode hook,
	// so encoding it measures what gob alone would ship.
	type gobShadow struct {
		Schema relation.Schema
		Tuples []relation.Tuple
	}
	h := relation.New(relation.MustSchema(
		relation.Column{Name: "CustName", Kind: relation.KindString},
		relation.Column{Name: "cnt1", Kind: relation.KindInt},
		relation.Column{Name: "sum1", Kind: relation.KindFloat},
		relation.Column{Name: "cnt2", Kind: relation.KindInt},
		relation.Column{Name: "sum2", Kind: relation.KindFloat},
	))
	// Full-precision floats model real AVG/SUM aggregates (a mean of prices
	// has no trailing-zero mantissa for either encoder to exploit).
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		h.MustAppend(relation.Tuple{
			relation.NewString(tpc.CustNameOf(int64(i))),
			relation.NewInt(int64(1 + rng.Intn(97))),
			relation.NewFloat(rng.Float64() * 1e5),
			relation.NewInt(int64(1 + rng.Intn(13))),
			relation.NewFloat(rng.Float64() * 100),
		})
	}
	b.Run("codec", func(b *testing.B) {
		var size int
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			data, err := relation.Marshal(h)
			if err != nil {
				b.Fatal(err)
			}
			size = len(data)
		}
		b.ReportMetric(float64(size), "payload-bytes/op")
	})
	b.Run("gob", func(b *testing.B) {
		var size int
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(&gobShadow{Schema: h.Schema, Tuples: h.Tuples}); err != nil {
				b.Fatal(err)
			}
			size = buf.Len()
		}
		b.ReportMetric(float64(size), "payload-bytes/op")
	})
}

// BenchmarkQuery4SitesOneOp times a whole single-operator query over 4
// serialized in-process sites: the base round and one operator round, with
// the coordinator's Theorem 1 merge of the per-site sub-aggregates among
// everything else (site scans, codec, transport). The merge is O(|H|), so
// ns/op should scale linearly with the group count.
func BenchmarkQuery4SitesOneOp(b *testing.B) {
	for _, groups := range []int{1000, 4000, 16000} {
		b.Run(fmt.Sprintf("groups=%d", groups), func(b *testing.B) {
			cfg := benchConfig()
			cfg.Customers = groups
			cfg.Rows = groups * 3
			d, err := tpc.Generate(cfg, 4)
			if err != nil {
				b.Fatal(err)
			}
			c, err := bench.NewTPCCluster(context.Background(), d, 4, stats.NetModel{})
			if err != nil {
				b.Fatal(err)
			}
			q := bench.TwoPhaseQuery(bench.HighCardAttr, true)
			q.Ops = q.Ops[:1]
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Coord.Execute(ctx, q, plan.None()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
