// Package skalla is a distributed OLAP query processor: a from-scratch
// reproduction of the Skalla system of Akinde, Böhlen, Johnson, Lakshmanan
// and Srivastava, "Efficient OLAP Query Processing in Distributed Data
// Warehouses" (EDBT 2002).
//
// A Skalla deployment is a set of local warehouse sites — each holding one
// horizontal partition of the fact relation(s) — plus a coordinator. OLAP
// queries are expressed as complex GMDJ expressions (a base-values query
// followed by a chain of MD operators); the coordinator evaluates them in
// rounds, shipping only partial aggregate results, never detail data, and
// applies the paper's optimizations: coalescing, distribution-independent
// and distribution-aware group reduction, and synchronization reduction.
//
// Quick start (in-process cluster):
//
//	cluster, _ := skalla.NewLocalCluster(4)
//	defer cluster.Close()
//	for i, part := range partitions {
//	    cluster.Load(ctx, i, "Flow", part)
//	}
//	q, _ := skalla.NewQuery("Flow", "SourceAS", "DestAS").
//	    Op("B.SourceAS = R.SourceAS && B.DestAS = R.DestAS",
//	        skalla.Count("cnt1"), skalla.Sum("NumBytes", "sum1")).
//	    Op("B.SourceAS = R.SourceAS && B.DestAS = R.DestAS && R.NumBytes >= B.sum1 / B.cnt1",
//	        skalla.Count("cnt2")).
//	    Build()
//	res, _ := cluster.Execute(context.Background(), q, skalla.AllOptimizations())
//	fmt.Println(res.Rel)
//	fmt.Println(res.Metrics)
package skalla

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"skalla/internal/agg"
	"skalla/internal/core"
	"skalla/internal/distrib"
	"skalla/internal/engine"
	"skalla/internal/expr"
	"skalla/internal/gmdj"
	"skalla/internal/obs"
	"skalla/internal/plan"
	"skalla/internal/relation"
	"skalla/internal/stats"
	"skalla/internal/transport"
)

// Re-exported data-model types. Relations are the unit of data loaded into
// sites and returned from queries.
type (
	// Value is a dynamically typed scalar (NULL, INT, FLOAT, STRING, BOOL).
	Value = relation.Value
	// Tuple is one row.
	Tuple = relation.Tuple
	// Column is a named, typed attribute.
	Column = relation.Column
	// Schema is an ordered set of columns.
	Schema = relation.Schema
	// Relation is an in-memory multiset of tuples.
	Relation = relation.Relation

	// Query is a complex GMDJ expression.
	Query = gmdj.Query
	// AggSpec is one aggregate in an operator's list.
	AggSpec = agg.Spec
	// Options are the optimization switches of the paper's Sect. 4 (a
	// compatibility shim over planner rule selection since Egil v2).
	Options = plan.Options
	// Selection names a planner rule selection: a mode (none, all, auto) or
	// an explicit rule list. See WithPlanMode.
	Selection = plan.Selection
	// Plan is a compiled distributed evaluation plan (rule trace, cost
	// estimate, and fingerprint included).
	Plan = plan.Plan
	// Result bundles the result relation, cost metrics, the plan, and the
	// stitched execution profile.
	Result = core.Result
	// QueryProfile is the stitched per-round, per-site-call cost record of
	// one execution: coordinator envelope plus each site's own breakdown
	// (eval time, rows per worker, segment reads, codec bytes).
	QueryProfile = obs.QueryProfile
	// Metrics is the per-round cost breakdown of an execution.
	Metrics = stats.Metrics
	// NetModel converts measured traffic into modeled communication time.
	NetModel = stats.NetModel
	// RetryPolicy makes per-site calls survive transient failures: attempt
	// count, exponential backoff with jitter, per-attempt deadline. The zero
	// value disables retries.
	RetryPolicy = core.RetryPolicy
	// Catalog carries distribution knowledge for the optimizer.
	Catalog = distrib.Catalog
	// Distribution is per-relation distribution knowledge.
	Distribution = distrib.Distribution
)

// Value constructors.
var (
	// NewInt builds an INT value.
	NewInt = relation.NewInt
	// NewFloat builds a FLOAT value.
	NewFloat = relation.NewFloat
	// NewString builds a STRING value.
	NewString = relation.NewString
	// NewBool builds a BOOL value.
	NewBool = relation.NewBool
	// NewRelation builds an empty relation with the given schema.
	NewRelation = relation.New
	// NewSchema builds and validates a schema.
	NewSchema = relation.NewSchema
	// NewCatalog bundles distributions into a catalog.
	NewCatalog = distrib.NewCatalog
	// DefaultRetryPolicy is a production-shaped retry policy: three attempts,
	// 50 ms initial backoff capped at 2 s, 30 s per attempt.
	DefaultRetryPolicy = core.DefaultRetryPolicy

	// Planner rule selections (Egil v2). SelectAuto picks the rule subset per
	// query from the communication cost model.
	SelectNone = plan.SelectNone
	SelectAll  = plan.SelectAll
	SelectAuto = plan.SelectAuto
	// SelectRules applies exactly the named rules (see PlannerRules).
	SelectRules = plan.SelectRules
	// ParseSelection parses "auto", "none", "all", or "rules=a,b,...".
	ParseSelection = plan.ParseSelection
	// PlannerRules lists the registered rule names in canonical order.
	PlannerRules = plan.RuleNames
)

// Aggregate constructors for the query builder.

// Count is COUNT(*) named as.
func Count(as string) AggSpec { return AggSpec{Func: agg.Count, As: as} }

// CountCol is COUNT(col) (non-NULL count) named as.
func CountCol(col, as string) AggSpec { return AggSpec{Func: agg.Count, Arg: col, As: as} }

// Sum is SUM(col) named as.
func Sum(col, as string) AggSpec { return AggSpec{Func: agg.Sum, Arg: col, As: as} }

// Avg is AVG(col) named as. It is decomposed into SUM and COUNT
// sub-aggregates for distributed evaluation; the result relation carries the
// finalized average (plus as_sum and as_cnt physical columns mid-query).
func Avg(col, as string) AggSpec { return AggSpec{Func: agg.Avg, Arg: col, As: as} }

// Min is MIN(col) named as.
func Min(col, as string) AggSpec { return AggSpec{Func: agg.Min, Arg: col, As: as} }

// Max is MAX(col) named as.
func Max(col, as string) AggSpec { return AggSpec{Func: agg.Max, Arg: col, As: as} }

// Variance is the population variance of col named as, decomposed into
// SUM + sum-of-squares + COUNT sub-aggregates for distributed evaluation.
func Variance(col, as string) AggSpec { return AggSpec{Func: agg.Variance, Arg: col, As: as} }

// StdDev is the population standard deviation of col named as.
func StdDev(col, as string) AggSpec { return AggSpec{Func: agg.StdDev, Arg: col, As: as} }

// NoOptimizations disables every Sect. 4 optimization (the baseline
// Alg. GMDJDistribEval).
func NoOptimizations() Options { return plan.None() }

// AllOptimizations enables coalescing, both group reductions, and
// synchronization reduction.
func AllOptimizations() Options { return plan.All() }

// QueryBuilder assembles a complex GMDJ expression. Conditions use the text
// syntax of the paper's θ conditions: "B.col" references the base-values
// relation (including aggregates computed by earlier operators), "R.col" the
// detail relation; operators are = != < <= > >= + - * / % && || ! with
// AND/OR/NOT keywords accepted.
type QueryBuilder struct {
	q   gmdj.Query
	err error
}

// NewQuery starts a query: the base-values relation is the distinct
// projection of keyCols over the named detail relation.
func NewQuery(detail string, keyCols ...string) *QueryBuilder {
	return &QueryBuilder{q: gmdj.Query{Base: gmdj.BaseQuery{Detail: detail, Cols: keyCols}}}
}

// Where filters the detail rows feeding the base-values projection; the
// condition may reference only R columns.
func (b *QueryBuilder) Where(cond string) *QueryBuilder {
	if b.err != nil {
		return b
	}
	e, err := expr.Parse(cond)
	if err != nil {
		b.err = err
		return b
	}
	b.q.Base.Where = e
	return b
}

// Op appends an MD operator over the base detail relation with a single
// grouping variable: the given condition and aggregate list.
func (b *QueryBuilder) Op(cond string, aggs ...AggSpec) *QueryBuilder {
	return b.OpOn(b.q.Base.Detail, cond, aggs...)
}

// OpOn is Op against a different detail relation (the paper's R_k may vary
// per round).
func (b *QueryBuilder) OpOn(detail, cond string, aggs ...AggSpec) *QueryBuilder {
	if b.err != nil {
		return b
	}
	e, err := expr.Parse(cond)
	if err != nil {
		b.err = err
		return b
	}
	b.q.Ops = append(b.q.Ops, gmdj.Operator{Detail: detail, Vars: []gmdj.GroupVar{{Aggs: aggs, Cond: e}}})
	return b
}

// Var adds an additional grouping variable to the most recent operator
// (hand-coalescing per Sect. 4.3).
func (b *QueryBuilder) Var(cond string, aggs ...AggSpec) *QueryBuilder {
	if b.err != nil {
		return b
	}
	if len(b.q.Ops) == 0 {
		b.err = errors.New("skalla: Var before any Op")
		return b
	}
	e, err := expr.Parse(cond)
	if err != nil {
		b.err = err
		return b
	}
	last := &b.q.Ops[len(b.q.Ops)-1]
	last.Vars = append(last.Vars, gmdj.GroupVar{Aggs: aggs, Cond: e})
	return b
}

// Build returns the assembled query. Structural validation against the
// sites' schemas happens at planning time.
func (b *QueryBuilder) Build() (Query, error) {
	if b.err != nil {
		return Query{}, b.err
	}
	if len(b.q.Base.Cols) == 0 {
		return Query{}, errors.New("skalla: query needs at least one key column")
	}
	return b.q, nil
}

// MustBuild is Build but panics on error; for statically known queries.
func (b *QueryBuilder) MustBuild() Query {
	q, err := b.Build()
	if err != nil {
		panic(err)
	}
	return q
}

// Cluster is a Skalla deployment handle: the coordinator plus its sites.
type Cluster struct {
	coord   *core.Coordinator
	sites   []transport.Site
	loaders []transport.Loader
	closers []interface{ Close() error }
	sel     plan.Selection
}

// ClusterOption configures cluster construction.
type ClusterOption func(*clusterConfig)

type clusterConfig struct {
	catalog       *distrib.Catalog
	net           stats.NetModel
	serialized    bool
	blockRows     int
	traceTo       io.Writer
	retry         core.RetryPolicy
	workers       int
	sel           plan.Selection
	selSet        bool
	selErr        error
	slowQuery     time.Duration
	planCache     int
	admit         bool
	maxConcurrent int
	queueDepth    int
	memBudget     int64
	resultCache   int
	singleFlight  bool
	batchWindow   time.Duration
}

// configure applies the per-coordinator settings shared by every cluster
// constructor.
func (cfg *clusterConfig) configure(coord *core.Coordinator) {
	coord.SetRowBlocking(cfg.blockRows)
	coord.SetRetryPolicy(cfg.retry)
	coord.SetMergeWorkers(cfg.workers)
	coord.SetSlowQueryThreshold(cfg.slowQuery)
	coord.SetTrace(cfg.traceTo)
	if cfg.planCache > 0 {
		coord.SetPlanCache(cfg.planCache)
	}
	if cfg.admit {
		coord.SetAdmission(cfg.maxConcurrent, cfg.queueDepth)
	}
	if cfg.memBudget > 0 {
		coord.SetQueryMemBudget(cfg.memBudget)
	}
	if cfg.resultCache > 0 {
		coord.SetResultCache(cfg.resultCache)
	}
	if cfg.singleFlight {
		coord.SetSingleFlight(true)
	}
	if cfg.batchWindow > 0 {
		coord.SetBatchWindow(cfg.batchWindow)
	}
}

// WithCatalog attaches distribution knowledge, enabling the
// distribution-aware optimizations (Thm. 4, Cor. 1).
func WithCatalog(cat *Catalog) ClusterOption {
	return func(c *clusterConfig) { c.catalog = cat }
}

// WithNetModel attaches a deterministic network cost model used for the
// communication component of the reported response time.
func WithNetModel(m NetModel) ClusterOption {
	return func(c *clusterConfig) { c.net = m }
}

// WithSerializedTransport makes in-process sites push every message through
// gob serialization, so byte metrics match a networked deployment. Off by
// default for NewLocalCluster (use it when measuring traffic).
func WithSerializedTransport() ClusterOption {
	return func(c *clusterConfig) { c.serialized = true }
}

// WithRowBlocking makes sites return sub-aggregate relations in blocks of at
// most rows rows, which the coordinator synchronizes as they arrive
// (Sect. 3.2 row blocking). Zero disables blocking.
func WithRowBlocking(rows int) ClusterOption {
	return func(c *clusterConfig) { c.blockRows = rows }
}

// WithTrace streams execution progress — round starts, per-site exchanges,
// retries, round completions — to the writer while queries run, one line per
// event, written from the query's profile as it is recorded.
func WithTrace(w io.Writer) ClusterOption {
	return func(c *clusterConfig) { c.traceTo = w }
}

// WithSiteRetry makes the coordinator retry failed per-site calls under the
// given policy (see DefaultRetryPolicy). Retried streams are staged before
// synchronization, so a partial failure is re-run without double-counting.
// Without this option site failures fail the query immediately.
func WithSiteRetry(p RetryPolicy) ClusterOption {
	return func(c *clusterConfig) { c.retry = p }
}

// WithWorkers sets the evaluation parallelism: in-process sites shard their
// detail scans across up to n workers, and the coordinator commits up to n
// per-site result streams concurrently during synchronization. 0 (the
// default) sizes automatically from GOMAXPROCS and the data; 1 forces fully
// sequential evaluation. For clusters built with Connect the sites run in
// their own processes — set their parallelism with skalla-site -workers —
// and this option governs only the coordinator's concurrent merge.
func WithWorkers(n int) ClusterOption {
	return func(c *clusterConfig) { c.workers = n }
}

// WithSlowQuery makes the coordinator log the full execution profile of any
// query slower than d (and count it in skalla_coord_slow_queries_total).
// Zero disables slow-query logging.
func WithSlowQuery(d time.Duration) ClusterOption {
	return func(c *clusterConfig) { c.slowQuery = d }
}

// WithPlanCache installs a prepared-plan cache of the given capacity on the
// coordinator: repeated statement texts reuse their compiled plan, skipping
// parse and optimize (in auto mode, the whole candidate enumeration). Entries
// are invalidated when the catalog generation moves. Zero or negative
// disables caching (the default).
func WithPlanCache(capacity int) ClusterOption {
	return func(c *clusterConfig) { c.planCache = capacity }
}

// WithMaxConcurrent bounds how many queries the coordinator executes at once:
// up to n run, up to 4n more wait in the admission queue (the wait is
// recorded in the query profile), and anything beyond that fails immediately
// with ErrAdmissionReject. n <= 0 bounds at GOMAXPROCS. Without this option
// admission control is off.
func WithMaxConcurrent(n int) ClusterOption {
	return func(c *clusterConfig) { c.admit, c.maxConcurrent, c.queueDepth = true, n, -1 }
}

// WithResultCache installs a super-aggregate result cache of the given
// capacity on the coordinator: repeat queries whose plan fingerprint matches
// a cached entry are served with zero site rounds. Entries are invalidated
// when the catalog generation moves — both at lookup and again before a
// finishing query commits, so a generation bump concurrent with an execution
// can never publish a stale result. Cache hits charge the per-query memory
// budget for the bytes they retain, exactly like an executed query. Zero or
// negative disables the cache (the default).
func WithResultCache(capacity int) ClusterOption {
	return func(c *clusterConfig) { c.resultCache = capacity }
}

// WithSingleFlight makes concurrent executions of plans with the same
// fingerprint collapse into one: a leader runs the distributed rounds on a
// context detached from any single caller's, and the others await its
// committed result (each receives a private clone and charges its own memory
// budget). Off by default; Serve enables it for server deployments.
func WithSingleFlight() ClusterOption {
	return func(c *clusterConfig) { c.singleFlight = true }
}

// WithBatchWindow enables cross-query site-call batching: concurrent operator
// rounds that aggregate over the same detail relation at the same site and
// arrive within d of each other ship as one batched exchange the site serves
// from a single scan of its partition. Zero or negative disables batching
// (the default). Where single-flight collapses identical plans, batching
// collapses the scan cost of merely co-located ones.
func WithBatchWindow(d time.Duration) ClusterOption {
	return func(c *clusterConfig) { c.batchWindow = d }
}

// WithQueryMemBudget bounds the coordinator-side memory one query may hold
// (staged sub-aggregate blocks plus base-result growth, estimated at staging
// and merge boundaries). A query crossing the budget fails with
// ErrQueryMemBudget while concurrent queries keep running. Zero or negative
// disables the budget (the default).
func WithQueryMemBudget(bytes int64) ClusterOption {
	return func(c *clusterConfig) { c.memBudget = bytes }
}

// WithPlanMode sets the cluster's default rule selection from the textual
// plan-mode syntax: "auto" (cost-model-driven per query), "none", "all", or
// "rules=<name>,..." (see PlannerRules). ExecuteSelected and ExplainSelected
// plan under it; without this option they behave like "all".
func WithPlanMode(mode string) ClusterOption {
	return func(c *clusterConfig) {
		sel, err := plan.ParseSelection(mode)
		if err != nil {
			c.selErr = err
			return
		}
		c.sel, c.selSet = sel, true
	}
}

// WithRules sets the cluster's default selection to exactly the named
// planner rules (unknown names fail cluster construction; no names means
// none).
func WithRules(names ...string) ClusterOption {
	return func(c *clusterConfig) {
		sel, err := plan.ParseSelection(plan.SelectRules(names...).String())
		if err != nil {
			c.selErr = err
			return
		}
		c.sel, c.selSet = sel, true
	}
}

// NewLocalCluster creates an in-process cluster of n empty sites. Load data
// with Load or LoadPartitions.
func NewLocalCluster(n int, opts ...ClusterOption) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("skalla: cluster size %d", n)
	}
	cfg := applyOptions(opts)
	if cfg.selErr != nil {
		return nil, cfg.selErr
	}
	sites := make([]transport.Site, n)
	loaders := make([]transport.Loader, n)
	for i := 0; i < n; i++ {
		es := engine.NewSite(i)
		es.SetWorkers(cfg.workers)
		if cfg.serialized {
			ls := transport.NewLocalSite(es)
			sites[i], loaders[i] = ls, ls
		} else {
			fs := transport.NewFastLocalSite(es)
			sites[i], loaders[i] = fs, fs
		}
	}
	coord, err := core.New(sites, cfg.catalog, cfg.net)
	if err != nil {
		return nil, err
	}
	cfg.configure(coord)
	return &Cluster{coord: coord, sites: sites, loaders: loaders, sel: cfg.sel}, nil
}

// Connect dials remote Skalla site servers (started with skalla-site or
// transport.Serve) and returns a cluster over them.
func Connect(addrs []string, opts ...ClusterOption) (*Cluster, error) {
	if len(addrs) == 0 {
		return nil, errors.New("skalla: no site addresses")
	}
	cfg := applyOptions(opts)
	if cfg.selErr != nil {
		return nil, cfg.selErr
	}
	cl := &Cluster{sel: cfg.sel}
	for _, a := range addrs {
		c, err := transport.Dial(a)
		if err != nil {
			cl.Close()
			return nil, fmt.Errorf("skalla: connect %s: %w", a, err)
		}
		cl.sites = append(cl.sites, c)
		cl.loaders = append(cl.loaders, c)
		cl.closers = append(cl.closers, c)
	}
	coord, err := core.New(cl.sites, cfg.catalog, cfg.net)
	if err != nil {
		cl.Close()
		return nil, err
	}
	cfg.configure(coord)
	cl.coord = coord
	return cl, nil
}

func applyOptions(opts []ClusterOption) *clusterConfig {
	cfg := &clusterConfig{}
	for _, o := range opts {
		o(cfg)
	}
	if !cfg.selSet {
		cfg.sel = plan.SelectAll()
	}
	return cfg
}

// NumSites returns the number of sites in the cluster.
func (c *Cluster) NumSites() int { return len(c.sites) }

// Load installs a relation partition at one site. The context bounds the
// transfer (for TCP-connected sites the partition crosses the wire). Once the
// partition is in place the catalog generation advances, so cached plans and
// results computed against the old data are not served again.
func (c *Cluster) Load(ctx context.Context, site int, name string, rel *Relation) error {
	if site < 0 || site >= len(c.loaders) {
		return fmt.Errorf("skalla: site %d of %d", site, len(c.loaders))
	}
	if err := c.loaders[site].Load(ctx, name, rel); err != nil {
		return err
	}
	c.coord.BumpGeneration()
	return nil
}

// LoadPartitions installs parts[i] at site i; len(parts) must match the
// cluster size.
func (c *Cluster) LoadPartitions(ctx context.Context, name string, parts []*Relation) error {
	if len(parts) != len(c.loaders) {
		return fmt.Errorf("skalla: %d partitions for %d sites", len(parts), len(c.loaders))
	}
	for i, p := range parts {
		if err := c.Load(ctx, i, name, p); err != nil {
			return err
		}
	}
	return nil
}

// Execute evaluates a query under the given optimization switches.
func (c *Cluster) Execute(ctx context.Context, q Query, opts Options) (*Result, error) {
	return c.coord.Execute(ctx, q, opts)
}

// ExecuteProfiled evaluates a query and returns the result together with its
// stitched execution profile: per round, per site call, the coordinator's
// envelope and the site's own breakdown. The profile is also retained in the
// in-process ring served at /debug/queries (see LastProfiles).
func (c *Cluster) ExecuteProfiled(ctx context.Context, q Query, opts Options) (*Result, *QueryProfile, error) {
	res, err := c.coord.Execute(ctx, q, opts)
	if res == nil {
		return nil, nil, err
	}
	return res, res.Profile, err
}

// LastProfiles returns up to n recently retained query profiles, newest
// first (all retained profiles when n <= 0). The ring is process-global and
// holds obs.DefaultProfileCapacity entries.
func LastProfiles(n int) []*QueryProfile {
	all := obs.Profiles.List()
	if n > 0 && len(all) > n {
		all = all[:n]
	}
	return all
}

// ExecuteSelected evaluates a query under the cluster's configured plan mode
// (WithPlanMode / WithRules; all rules when unconfigured).
func (c *Cluster) ExecuteSelected(ctx context.Context, q Query) (*Result, error) {
	return c.coord.ExecuteWith(ctx, q, c.sel)
}

// ExecuteWith evaluates a query under an explicit rule selection.
func (c *Cluster) ExecuteWith(ctx context.Context, q Query, sel Selection) (*Result, error) {
	return c.coord.ExecuteWith(ctx, q, sel)
}

// TableInfo describes one relation at one site.
type TableInfo = engine.TableInfo

// Tables returns the per-site relation inventory: element i lists the
// relations (with row counts) that site i serves.
func (c *Cluster) Tables(ctx context.Context) ([][]TableInfo, error) {
	out := make([][]TableInfo, len(c.sites))
	for i, s := range c.sites {
		infos, err := s.Tables(ctx)
		if err != nil {
			return nil, err
		}
		out[i] = infos
	}
	return out, nil
}

// Explain returns the compiled distributed plan description without
// executing the query.
func (c *Cluster) Explain(ctx context.Context, q Query, opts Options) (string, error) {
	pl, err := c.coord.Plan(ctx, q, opts)
	if err != nil {
		return "", err
	}
	return pl.Describe(), nil
}

// ExplainSelected is Explain under the cluster's configured plan mode.
func (c *Cluster) ExplainSelected(ctx context.Context, q Query) (string, error) {
	pl, err := c.coord.PlanWith(ctx, q, c.sel)
	if err != nil {
		return "", err
	}
	return pl.Describe(), nil
}

// PlanWith compiles (without executing) a plan under an explicit rule
// selection, exposing the rule trace, cost estimate, and fingerprint.
func (c *Cluster) PlanWith(ctx context.Context, q Query, sel Selection) (*Plan, error) {
	return c.coord.PlanWith(ctx, q, sel)
}

// Close releases any network connections held by the cluster.
func (c *Cluster) Close() error {
	var first error
	for _, cl := range c.closers {
		if err := cl.Close(); err != nil && first == nil {
			first = err
		}
	}
	c.closers = nil
	return first
}

// NewTieredLocalCluster creates an in-process two-tier deployment: leaves
// leaf sites split as evenly as possible behind relays relay nodes — the
// multi-tiered coordinator architecture the paper lists as future work
// (Sect. 6). Relays pre-merge their subtree's sub-aggregates (Theorem 1 is
// associative), cutting the root coordinator's fan-in from leaves to relays.
// Load and LoadPartitions address the leaf sites; queries run against the
// relay tier.
func NewTieredLocalCluster(leaves, relays int, opts ...ClusterOption) (*Cluster, error) {
	if leaves <= 0 || relays <= 0 || relays > leaves {
		return nil, fmt.Errorf("skalla: tiered cluster with %d leaves behind %d relays", leaves, relays)
	}
	cfg := applyOptions(opts)
	if cfg.selErr != nil {
		return nil, cfg.selErr
	}
	leafSites := make([]transport.Site, leaves)
	loaders := make([]transport.Loader, leaves)
	for i := 0; i < leaves; i++ {
		es := engine.NewSite(i)
		es.SetWorkers(cfg.workers)
		if cfg.serialized {
			ls := transport.NewLocalSite(es)
			leafSites[i], loaders[i] = ls, ls
		} else {
			fs := transport.NewFastLocalSite(es)
			leafSites[i], loaders[i] = fs, fs
		}
	}
	tier := make([]transport.Site, relays)
	per := leaves / relays
	extra := leaves % relays
	start := 0
	for i := 0; i < relays; i++ {
		n := per
		if i < extra {
			n++
		}
		relay, err := core.NewRelay(i, leafSites[start:start+n])
		if err != nil {
			return nil, err
		}
		start += n
		if cfg.serialized {
			tier[i] = transport.NewLocalSite(relay)
		} else {
			tier[i] = transport.NewFastLocalSite(relay)
		}
	}
	coord, err := core.New(tier, cfg.catalog, cfg.net)
	if err != nil {
		return nil, err
	}
	cfg.configure(coord)
	return &Cluster{coord: coord, sites: tier, loaders: loaders, sel: cfg.sel}, nil
}

// NumLeafSites returns the number of data-holding sites (equal to NumSites
// except in tiered clusters, where NumSites counts the relay tier).
func (c *Cluster) NumLeafSites() int { return len(c.loaders) }
