package main

import (
	"context"
	"fmt"
	"time"

	"skalla/internal/bench"
	"skalla/internal/core"
	"skalla/internal/engine"
	"skalla/internal/gmdj"
	"skalla/internal/obs"
	"skalla/internal/plan"
	"skalla/internal/relation"
	"skalla/internal/stats"
	"skalla/internal/tpc"
	"skalla/internal/transport"
)

// Data sizes of the batch workloads. rounds-8site keeps the group count high
// relative to the rows, so shipping X and H_i dominates; local-4site keeps
// about 24 detail rows per group, so site scans dominate.
var (
	rounds8Data = tpc.Config{Rows: 2400, Customers: 600, Nations: 25, CitiesPerNation: 40, Clerks: 500}
	local4Data  = tpc.Config{Rows: 12000, Customers: 500, Nations: 25, CitiesPerNation: 40, Clerks: 500}
)

// batchWarmup is the number of queries run before timing starts: the first
// exchange on each serializing site carries gob type descriptors, and the
// engine's pools fill on the first few evaluations.
const batchWarmup = 3

// batchEnv runs the paper's Fig. 2 query (two dependent operators on
// CustName, each with COUNT and AVG) in a closed loop from one caller,
// through Coordinator.ExecuteWith over serializing in-process sites.
type batchEnv struct {
	coord  *core.Coordinator
	q      gmdj.Query
	sel    plan.Selection
	data   *tpc.Dataset
	tr     *tracer
	oracle *relation.Relation
}

func setupRounds8(ctx context.Context, cfg runConfig) (env, error) {
	return setupBatch(ctx, cfg, rounds8Data, 8, plan.SelectNone())
}

func setupLocal4(ctx context.Context, cfg runConfig) (env, error) {
	return setupBatch(ctx, cfg, local4Data, 4, plan.SelectAll())
}

func setupBatch(ctx context.Context, cfg runConfig, dc tpc.Config, n int, sel plan.Selection) (env, error) {
	dc.Seed = cfg.seed
	data, err := tpc.Generate(dc, n)
	if err != nil {
		return nil, err
	}
	sites := make([]transport.Site, n)
	for i := range sites {
		es := engine.NewSite(i)
		if err := es.Load(ctx, tpc.RelationName, data.Parts[i]); err != nil {
			return nil, err
		}
		var b transport.Backend = es
		if cfg.tr != nil {
			b = traceBackend(b, cfg.tr)
		}
		var s transport.Site = transport.NewLocalSite(b)
		if cfg.tr != nil {
			s = traceSite(s, cfg.tr)
		}
		sites[i] = s
	}
	cat, err := data.Catalog(n)
	if err != nil {
		return nil, err
	}
	coord, err := core.New(sites, cat, stats.NetModel{})
	if err != nil {
		return nil, err
	}
	e := &batchEnv{coord: coord, q: bench.TwoPhaseQuery(bench.HighCardAttr, true), sel: sel, data: data, tr: cfg.tr}
	for i := 0; i < batchWarmup; i++ {
		if _, err := coord.ExecuteWith(obs.WithQueryID(ctx, fmt.Sprintf("warm%d", i)), e.q, sel); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return e, nil
}

// prepareOracle evaluates the query centrally over the union of the loaded
// partitions: the reference every response must equal.
func (e *batchEnv) prepareOracle(ctx context.Context) error {
	global := engine.NewSite(0)
	if err := global.Load(ctx, tpc.RelationName, e.data.Global()); err != nil {
		return err
	}
	var err error
	e.oracle, err = gmdj.EvalCentral(e.q, global.Source(), true)
	return err
}

// measure runs the closed loop. Each response is checked as soon as it
// arrives (results are too large to keep), with the check's time and
// allocations excluded from the measurement, as is computing the reference.
func (e *batchEnv) measure(ctx context.Context, d time.Duration) (*phase, error) {
	if e.oracle == nil {
		if err := e.prepareOracle(ctx); err != nil {
			return nil, fmt.Errorf("reference: %w", err)
		}
	}
	ph := &phase{}
	r0 := readRuntime()
	var checkAllocs uint64
	for n := 0; ph.wall < d; n++ {
		qid := fmt.Sprintf("b%d", n)
		qctx := obs.WithQueryID(ctx, qid)
		start := time.Now()
		var traceStart int64
		if e.tr != nil {
			traceStart = e.tr.now()
		}
		res, err := e.coord.ExecuteWith(qctx, e.q, e.sel)
		lat := time.Since(start)
		if e.tr != nil {
			e.tr.record(span{Name: spanQuery, QueryID: qid, Site: -1, Start: traceStart, End: e.tr.now()})
		}
		o := op{qid: qid, start: start, lat: lat, err: err}
		ph.wall += lat
		if err == nil {
			a0 := heapAllocs()
			o.correct = res.Rel.EqualMultisetApprox(e.oracle, 1e-9)
			fillFromMetrics(&o, res.Metrics)
			o.estBytes = res.Plan.Estimate.BytesDown + res.Plan.Estimate.BytesUp
			res = nil
			checkAllocs += heapAllocs() - a0
		}
		ph.ops = append(ph.ops, o)
	}
	r1 := readRuntime()
	ph.allocBytes = r1.allocBytes - r0.allocBytes - checkAllocs
	ph.gcCPU, ph.totalCPU = r1.gcCPU-r0.gcCPU, r1.totalCPU-r0.totalCPU
	return ph, nil
}

// fillFromMetrics copies the query's stats.Call totals into o.
func fillFromMetrics(o *op, m *stats.Metrics) {
	o.rounds = m.NumRounds()
	for _, r := range m.Rounds {
		o.calls += len(r.Calls)
		o.bytesDown += r.BytesDown()
		o.bytesUp += r.BytesUp()
		o.rowsDown += r.RowsDown()
		o.rowsUp += r.RowsUp()
	}
}

func (e *batchEnv) layers() layerInputs {
	return layerInputs{coord: e.coord, queries: []gmdj.Query{e.q}, sel: e.sel}
}

func (e *batchEnv) close() {}
