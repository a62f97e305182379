package skalla_test

import (
	"context"
	"fmt"
	"log"

	"skalla"
)

// tinyFlowCluster builds a deterministic two-site cluster with hand-written
// flow rows for the examples.
func tinyFlowCluster() *skalla.Cluster {
	schema, err := skalla.NewSchema(
		skalla.Column{Name: "SourceAS", Kind: 1}, // INT
		skalla.Column{Name: "DestAS", Kind: 1},
		skalla.Column{Name: "NumBytes", Kind: 1},
	)
	if err != nil {
		log.Fatal(err)
	}
	mkRel := func(rows [][3]int64) *skalla.Relation {
		r := skalla.NewRelation(schema)
		for _, x := range rows {
			r.MustAppend(skalla.Tuple{skalla.NewInt(x[0]), skalla.NewInt(x[1]), skalla.NewInt(x[2])})
		}
		return r
	}
	cluster, err := skalla.NewLocalCluster(2)
	if err != nil {
		log.Fatal(err)
	}
	// Site 0 holds AS 1, site 1 holds AS 2 (RouterId partitioning).
	if err := cluster.Load(context.Background(), 0, "Flow", mkRel([][3]int64{{1, 1, 10}, {1, 1, 30}, {1, 2, 5}})); err != nil {
		log.Fatal(err)
	}
	if err := cluster.Load(context.Background(), 1, "Flow", mkRel([][3]int64{{2, 1, 7}, {2, 1, 9}})); err != nil {
		log.Fatal(err)
	}
	return cluster
}

// The paper's Example 1 through the query builder: per AS pair, the flow
// count and the count of flows at or above the pair's average size.
func ExampleNewQuery() {
	cluster := tinyFlowCluster()
	defer cluster.Close()

	q, err := skalla.NewQuery("Flow", "SourceAS", "DestAS").
		Op("B.SourceAS = R.SourceAS && B.DestAS = R.DestAS",
			skalla.Count("cnt1"), skalla.Sum("NumBytes", "sum1")).
		Op("B.SourceAS = R.SourceAS && B.DestAS = R.DestAS && R.NumBytes >= B.sum1 / B.cnt1",
			skalla.Count("cnt2")).
		Build()
	if err != nil {
		log.Fatal(err)
	}
	res, err := cluster.Execute(context.Background(), q, skalla.AllOptimizations())
	if err != nil {
		log.Fatal(err)
	}
	res.Rel.Sort()
	fmt.Print(res.Rel)
	// Output:
	// SourceAS  DestAS  cnt1  sum1  cnt2
	// 1         1       2     40    1
	// 1         2       1     5     1
	// 2         1       2     16    1
}

// The same analysis in the Egil SQL dialect.
func ExampleTranslateSQL() {
	cluster := tinyFlowCluster()
	defer cluster.Close()

	q, err := skalla.TranslateSQL(`
		SELECT SourceAS, COUNT(*) AS flows, SUM(NumBytes) AS bytes
		FROM Flow
		GROUP BY SourceAS`)
	if err != nil {
		log.Fatal(err)
	}
	res, err := cluster.Execute(context.Background(), q, skalla.NoOptimizations())
	if err != nil {
		log.Fatal(err)
	}
	res.Rel.Sort()
	fmt.Print(res.Rel)
	// Output:
	// SourceAS  flows  bytes
	// 1         3      45
	// 2         2      16
}

// A data cube over two dimensions: NULL marks a rolled-up dimension; the
// all-NULL row is the grand total.
func ExampleCubeQuery() {
	cluster := tinyFlowCluster()
	defer cluster.Close()

	q, err := skalla.CubeQuery("Flow", []string{"SourceAS", "DestAS"}, skalla.Count("flows"))
	if err != nil {
		log.Fatal(err)
	}
	res, err := cluster.Execute(context.Background(), q, skalla.NoOptimizations())
	if err != nil {
		log.Fatal(err)
	}
	res.Rel.Sort()
	fmt.Print(res.Rel)
	// Output:
	// SourceAS  DestAS  flows
	// NULL      NULL    5
	// NULL      1       4
	// NULL      2       1
	// 1         NULL    3
	// 1         1       2
	// 1         2       1
	// 2         NULL    2
	// 2         1       2
}

// Explain shows the distributed plan without executing: this aligned query
// collapses to a single fully local round under Cor. 1 when the cluster has
// the distribution catalog; without one, sync reduction still folds the
// base round into MD1 (Prop. 2).
func ExampleCluster_Explain() {
	cluster := tinyFlowCluster()
	defer cluster.Close()

	q := skalla.NewQuery("Flow", "SourceAS").
		Op("B.SourceAS = R.SourceAS", skalla.Count("flows")).
		MustBuild()
	desc, err := cluster.Explain(context.Background(), q, skalla.AllOptimizations())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(desc)
	// Output:
	// plan 7b236f53706d479d: 2 site(s), mode all
	//   operators: 1 (coalescing merges: 0)
	//   synchronization rounds: 1
	//   sync reduction: base sync folded into MD1 (Prop. 2)
	//   MD1: coordinator-side group reduction: false, site-side guard: false
	//   rule coalesce           skipped: no adjacent independent operators
	//   rule local-prefix       skipped: no partition-aligned operator prefix
	//   rule sync-skip          applied: base sync folded into MD1 (Prop. 2) (est -1 round(s), -37056 B)
	//   rule group-reduce-coord applied: reduction predicates for 0 of 1 operator round(s) (est +0 round(s), +0 B)
	//   rule group-reduce-site  skipped: no coordinator-driven operator rounds to guard
	//   estimated cost: 1 round(s), 192 B down, 34816 B up
	//     round base+MD1         est 192 B down, 34816 B up
}
