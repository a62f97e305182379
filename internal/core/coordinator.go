// Package core implements the Skalla coordinator: Alg. GMDJDistribEval of
// Sect. 3. The coordinator compiles a distributed plan (internal/plan),
// drives the per-round exchange with the sites (internal/transport), and
// synchronizes the sites' sub-aggregate relations into the base-result
// structure X per Theorem 1, recording the full cost breakdown
// (internal/stats).
package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"skalla/internal/distrib"
	"skalla/internal/engine"
	"skalla/internal/gmdj"
	"skalla/internal/obs"
	"skalla/internal/plan"
	"skalla/internal/relation"
	"skalla/internal/stats"
	"skalla/internal/transport"
)

// Coordinator executes complex GMDJ expressions against a set of Skalla
// sites.
type Coordinator struct {
	sites     []transport.Site
	cat       *distrib.Catalog
	net       stats.NetModel
	blockRows int
	trace     *obs.TraceWriter // nil = no trace lines
	retry     RetryPolicy
	slowQuery time.Duration
	memBudget int64        // per-query coordinator memory budget (0 = off)
	admit     *admission   // nil = admission control off
	plans     *planCache   // nil = plan caching off
	results   *resultCache // nil = result caching off
	flights   *flightGroup // nil = single-flight collapsing off
	batcher   *siteBatcher // nil = site-call batching off
}

// New creates a coordinator. cat may be nil (no distribution knowledge); net
// may be the zero model (no modeled communication time).
func New(sites []transport.Site, cat *distrib.Catalog, net stats.NetModel) (*Coordinator, error) {
	if len(sites) == 0 {
		return nil, fmt.Errorf("core: coordinator needs at least one site")
	}
	if cat == nil {
		// An empty catalog plans exactly like none, and still carries the
		// generation BumpGeneration advances.
		cat = distrib.NewCatalog()
	}
	return &Coordinator{sites: sites, cat: cat, net: net}, nil
}

// BumpGeneration advances the catalog generation after the sites' data
// changed, invalidating cached plans and results computed against the old
// data. Call it only after the change is in place: a query compiled under
// the new generation must never see (and cache) the old data.
func (c *Coordinator) BumpGeneration() { c.cat.Bump() }

// SetRowBlocking makes the sites return H_i in blocks of at most rows rows
// (Sect. 3.2 row blocking); the coordinator synchronizes blocks as they
// arrive in either mode. Zero (the default) ships each H_i whole.
func (c *Coordinator) SetRowBlocking(rows int) { c.blockRows = rows }

// NumSites returns the number of attached sites.
func (c *Coordinator) NumSites() int { return len(c.sites) }

// Result is the outcome of one distributed evaluation.
type Result struct {
	Rel *relation.Relation
	// Metrics is the per-round cost view derived from Profile.
	Metrics *stats.Metrics
	Plan    *plan.Plan
	// Profile is the per-round, per-site-call ledger of the evaluation (also
	// retained in obs.Profiles for /debug/queries).
	Profile *obs.QueryProfile
}

// schemaSource adapts site 0 into a gmdj.SchemaSource with caching, so
// planning can resolve detail schemas without repeated metadata calls.
type schemaSource struct {
	ctx  context.Context
	site transport.Site
	mu   sync.Mutex
	//skallavet:allow stringkey -- catalog cache keyed by relation name: one lookup per plan, not per tuple
	cache map[string]relation.Schema
}

func (s *schemaSource) DetailSchema(name string) (relation.Schema, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sch, ok := s.cache[name]; ok {
		return sch, nil
	}
	sch, err := s.site.DetailSchema(s.ctx, name)
	if err != nil {
		return nil, err
	}
	s.cache[name] = sch
	return sch, nil
}

// SchemaSource returns a caching schema source backed by the first site.
func (c *Coordinator) SchemaSource(ctx context.Context) gmdj.SchemaSource {
	//skallavet:allow stringkey -- catalog cache keyed by relation name: one lookup per plan, not per tuple
	return &schemaSource{ctx: ctx, site: c.sites[0], cache: make(map[string]relation.Schema)}
}

// PlanWith compiles the distributed plan for a query under a rule selection
// (including plan.SelectAuto, which picks rules per query from the cost
// model), without executing it.
func (c *Coordinator) PlanWith(ctx context.Context, q gmdj.Query, sel plan.Selection) (*plan.Plan, error) {
	return c.compile(q, c.SchemaSource(ctx), sel)
}

// ExecuteWith evaluates a complex GMDJ expression under a rule selection and
// returns the result relation together with the full metrics record.
func (c *Coordinator) ExecuteWith(ctx context.Context, q gmdj.Query, sel plan.Selection) (*Result, error) {
	src := c.SchemaSource(ctx)
	pl, err := c.compile(q, src, sel)
	if err != nil {
		return nil, err
	}
	return c.ExecutePlan(ctx, pl, src)
}

// compile compiles q under sel, resolving detail schemas through src (the
// caller executes through the same source, so schemas are fetched once per
// query), and records the chosen plan's rule applications and cost estimate
// (auto-mode candidates that lost the enumeration are not counted).
func (c *Coordinator) compile(q gmdj.Query, src gmdj.SchemaSource, sel plan.Selection) (*plan.Plan, error) {
	pl, err := plan.Compile(q, src, c.cat, len(c.sites), sel, plan.DefaultCostModel(c.net))
	if err != nil {
		return nil, err
	}
	for _, r := range pl.Rules {
		obs.PlanRulesApplied.With(r).Inc()
	}
	obs.PlanCostEstimate.With("down").Set(pl.Estimate.BytesDown)
	obs.PlanCostEstimate.With("up").Set(pl.Estimate.BytesUp)
	return pl, nil
}

// ExecutePlan runs a pre-compiled plan. A query ID is drawn from ctx (or
// generated) and propagated to every site call, so site-side logs and metrics
// correlate with the coordinator's rounds; the whole evaluation is recorded
// as an obs query span. When admission control is configured (SetAdmission)
// the evaluation first takes an execution slot — possibly waiting in the
// bounded queue, with the wait recorded as the profile's QueueTime — and a
// full queue fails the query with ErrAdmissionReject before any site work.
//
// When the shared-work layer is active (SetResultCache / SetSingleFlight)
// and the plan carries a fingerprint, the execution may be served from the
// super-aggregate result cache or collapsed onto a concurrent execution of
// the same fingerprint (see shared.go); either way the caller receives its
// own result relation and a profile attributed in QueryProfile.Shared.
func (c *Coordinator) ExecutePlan(ctx context.Context, pl *plan.Plan, src gmdj.SchemaSource) (*Result, error) {
	if pl.Fingerprint != "" && (c.results != nil || c.flights != nil) {
		return c.executeShared(ctx, pl, src)
	}
	res, prof, err := c.executeSpanned(ctx, pl, src)
	c.finishProfile(prof, pl, res)
	return res, err
}

// executeSpanned runs the admission wait, the query span, and the distributed
// rounds, returning the unfinished profile so callers (the plain paths and the
// single-flight leader) can attribute it before it lands in the ring.
func (c *Coordinator) executeSpanned(ctx context.Context, pl *plan.Plan, src gmdj.SchemaSource) (*Result, *obs.QueryProfile, error) {
	queued, err := c.admit.acquire(ctx)
	if err != nil {
		return nil, nil, err
	}
	defer c.admit.release()
	qid := obs.QueryIDFrom(ctx)
	if qid == "" {
		qid = obs.NewQueryID()
		ctx = obs.WithQueryID(ctx, qid)
	}
	span := obs.StartQuery(qid, c.trace)
	res, err := c.executePlan(ctx, pl, src, span)
	prof := span.End(err)
	prof.QueueTime = queued
	return res, prof, err
}

func (c *Coordinator) executePlan(ctx context.Context, pl *plan.Plan, src gmdj.SchemaSource, span *obs.QuerySpan) (*Result, error) {
	segs, err := buildSegments(pl.Query, src, len(pl.Keys()))
	if err != nil {
		return nil, err
	}
	mg := newMerger(pl.Keys(), pl.XSchemas, segs, newMemBudget(c.memBudget))

	startOp := 0
	switch {
	case pl.LocalPrefix > 0:
		// Thm. 5 / Cor. 1 family: the leading LocalPrefix operators run
		// entirely at the sites, synchronized once.
		name := fmt.Sprintf("local-MD1..MD%d", pl.LocalPrefix)
		if pl.FullLocal {
			name = "local-all"
		}
		if err := c.localRound(ctx, pl, mg, span, pl.LocalPrefix, name); err != nil {
			return nil, err
		}
		startOp = pl.LocalPrefix
	case pl.SkipBaseSync:
		// Prop. 2: the base sync folds into the first operator's round.
		if err := c.localRound(ctx, pl, mg, span, 1, "base+MD1"); err != nil {
			return nil, err
		}
		startOp = 1
	default:
		if err := c.baseRound(ctx, pl, mg, span); err != nil {
			return nil, err
		}
	}
	for k := startOp; k < len(pl.Query.Ops); k++ {
		if err := c.operatorRound(ctx, pl, mg, span, k); err != nil {
			return nil, err
		}
	}

	final, err := mg.Finalize(gmdj.FinalColumns(pl.Query))
	if err != nil {
		return nil, err
	}
	return &Result{Rel: final, Plan: pl}, nil
}

// siteResult is one site's response within a round.
type siteResult struct {
	rel  *relation.Relation
	call stats.Call
	err  error
}

// broadcast runs f against every site in parallel — each site call under the
// coordinator's retry policy — and gathers the results in site order. The
// per-site results are returned even when the broadcast fails, so callers can
// record the traffic that did happen. Cancellation wins: a cancelled context
// is reported as ctx.Err() once all calls have returned, ahead of any
// per-site error.
func (c *Coordinator) broadcast(ctx context.Context, rs *obs.RoundSpan, f func(ctx context.Context, s transport.Site) (*relation.Relation, stats.Call, error)) ([]siteResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	results := make([]siteResult, len(c.sites))
	var wg sync.WaitGroup
	for i, s := range c.sites {
		wg.Add(1)
		go func(i int, s transport.Site) {
			defer wg.Done()
			r := &results[i]
			r.call, r.err = c.withRetry(ctx, rs, i, func(actx context.Context) (stats.Call, error) {
				rel, call, err := f(actx, s)
				r.rel = rel
				return call, err
			})
		}(i, s)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return results, err
	}
	for _, r := range results {
		if r.err != nil {
			return results, r.err
		}
	}
	return results, nil
}

// endRound records the round's successful calls in site order (failed
// attempts were recorded as they happened) and closes the round. Calls are
// recorded even when the coordinator's merge failed: the traffic happened,
// and -stats-json and traces must reflect it.
func endRound(rs *obs.RoundSpan, results []siteResult, coordTime time.Duration) {
	for _, r := range results {
		if r.err == nil {
			rs.Call(r.call)
		}
	}
	rs.End(coordTime)
}

// baseRound is round 0 of the unreduced algorithm: every site computes its
// base-values fragment B_i; the coordinator unions and de-duplicates them
// into X_0.
func (c *Coordinator) baseRound(ctx context.Context, pl *plan.Plan, mg *merger, span *obs.QuerySpan) error {
	rs := span.StartRound("base", 0)
	ctx = obs.WithRound(ctx, "base")
	results, err := c.broadcast(ctx, rs, func(ctx context.Context, s transport.Site) (*relation.Relation, stats.Call, error) {
		return s.EvalBase(ctx, pl.Query.Base)
	})
	coordStart := time.Now()
	if err == nil {
		union := relation.New(pl.XSchemas[0])
		for _, r := range results {
			if err = union.Union(r.rel); err != nil {
				break
			}
		}
		if err == nil {
			err = mg.InitBase(union)
		}
	}
	coordTime := time.Since(coordStart)
	rs.ObserveMerge(coordTime)
	endRound(rs, results, coordTime)
	return err
}

// localRound ships the query prefix to every site for local evaluation and
// merges the returned X fragments (synchronization-reduced rounds of
// Prop. 2 / Cor. 1).
func (c *Coordinator) localRound(ctx context.Context, pl *plan.Plan, mg *merger, span *obs.QuerySpan, upTo int, name string) error {
	rs := span.StartRound(name, 0)
	ctx = obs.WithRound(ctx, name)
	req := engine.LocalRequest{Query: pl.Query, UpTo: upTo}
	results, err := c.broadcast(ctx, rs, func(ctx context.Context, s transport.Site) (*relation.Relation, stats.Call, error) {
		return s.EvalLocal(ctx, req)
	})
	coordStart := time.Now()
	if err == nil {
		err = mg.InitLocal(upTo)
	}
	if err == nil {
		for _, r := range results {
			t0 := time.Now()
			if err = mg.MergeLocal(r.rel); err != nil {
				break
			}
			rs.ObserveMerge(time.Since(t0))
		}
	}
	if err == nil {
		mg.RecomputeDerived(upTo)
	}
	endRound(rs, results, time.Since(coordStart))
	return err
}

// operatorRound is one round of Alg. GMDJDistribEval for operator k: the
// coordinator ships the base-result structure (reduced per Thm. 4 when a
// reducer is available) to each site, the sites compute sub-aggregates
// (guard-filtered per Prop. 1 when enabled), and the coordinator
// synchronizes the H_i into X.
//
// Synchronization is streaming (Sect. 3.2) and fault-tolerant: each site's
// H_i blocks — as they arrive, while slower sites are still computing — are
// validated and staged in a per-site buffer, and the site's goroutine
// commits its completed stream into X with one O(|H_i|) key-indexed merge,
// concurrently with the other sites' commits. Staging is what makes the
// per-site retry policy sound: a stream that dies after partial blocks is
// discarded whole and re-run without double-counting into X.
func (c *Coordinator) operatorRound(ctx context.Context, pl *plan.Plan, mg *merger, span *obs.QuerySpan, k int) error {
	op := pl.Query.Ops[k]
	roundName := fmt.Sprintf("MD%d", k+1)
	rs := span.StartRound(roundName, mg.X().Len())
	ctx = obs.WithRound(ctx, roundName)
	// A stable snapshot of X: fragments reference it while the live X is
	// extended and mutated by the streaming merge.
	snap := mg.Snapshot()

	var reducers []distrib.ReductionPred
	if pl.Reducers != nil && k < len(pl.Reducers) {
		reducers = pl.Reducers[k]
	}

	// Extend X with the operator's identity columns before any stage lands.
	var coordTime time.Duration
	t0 := time.Now()
	if err := mg.Extend(); err != nil {
		return err
	}
	coordTime += time.Since(t0)

	var mu sync.Mutex // guards mergeErr and coordTime while sites commit
	var mergeErr error
	results := make([]siteResult, len(c.sites))
	var wg sync.WaitGroup
	for i, s := range c.sites {
		wg.Add(1)
		go func(i int, s transport.Site) {
			defer wg.Done()
			// Thm. 4 fragment reduction runs here, in each site's own
			// goroutine, so the O(sites × |X|) predicate evaluation
			// parallelizes instead of serializing the round's start. It is
			// deterministic, so retries reuse the same fragment.
			frag := snap
			if reducers != nil {
				pred := reducers[i]
				f := relation.New(snap.Schema)
				for _, row := range snap.Tuples {
					keep, err := pred(row)
					if err != nil {
						results[i].err = err
						return
					}
					if keep {
						f.Tuples = append(f.Tuples, row)
					}
				}
				frag = f
			}
			req := engine.OperatorRequest{
				Base:      frag,
				Op:        op,
				Keys:      pl.Keys(),
				Guard:     pl.Guard,
				BlockRows: c.blockRows,
			}
			var staged *hStage
			r := &results[i]
			r.call, r.err = c.withRetry(ctx, rs, i, func(actx context.Context) (stats.Call, error) {
				st := mg.NewStage(k)
				call, err := c.siteOperatorStream(actx, s, req, func(block *relation.Relation) error {
					// End a cancelled query's streams promptly instead of
					// computing and staging the rest for nothing.
					if err := ctx.Err(); err != nil {
						return err
					}
					if err := st.Add(block); err != nil {
						return &permanentError{err}
					}
					return nil
				})
				if err != nil {
					st.Discard()
					//skallavet:allow errclass -- batcher seam: siteOperatorStream only relays errors from transport site calls (the retryable class), ctx sentinels, or this callback's own classified errors; the batch delivers them through a member field the dataflow can't follow
					return call, err
				}
				staged = st
				return call, nil
			})
			// The commit runs outside the retried call: a merge failure is
			// the coordinator's, not a site attempt's.
			if r.err != nil {
				return // the failed attempt discarded its stage
			}
			if ctx.Err() != nil {
				staged.Discard()
				return
			}
			obs.CoordMergeWorkers.Add(1)
			t0 := time.Now()
			err := mg.Commit(staged, k)
			d := time.Since(t0)
			obs.CoordMergeWorkers.Add(-1)
			rs.ObserveMerge(d)
			mu.Lock()
			coordTime += d
			if mergeErr == nil {
				mergeErr = err
			}
			mu.Unlock()
		}(i, s)
	}
	wg.Wait()

	t0 = time.Now()
	err := ctx.Err()
	if err == nil {
		for _, r := range results {
			if r.err != nil {
				err = r.err
				break
			}
		}
	}
	if err == nil {
		err = mergeErr
	}
	if err == nil {
		mg.RecomputeDerived(k + 1)
	}
	coordTime += time.Since(t0)
	endRound(rs, results, coordTime)
	return err
}

// TrafficBound computes the Theorem 2 bound on the number of base-structure
// rows transferred by Alg. GMDJDistribEval: Σ_{i=1..m} (2·s_i·|Q|) + s_0·|Q|,
// with s_i the number of sites participating in round i and |Q| the number
// of groups in the result.
func TrafficBound(pl *plan.Plan, resultGroups int) int {
	m := len(pl.Query.Ops)
	return (2*m + 1) * pl.NumSites * resultGroups
}
