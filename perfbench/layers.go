package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"skalla/internal/core"
	"skalla/internal/egil"
	"skalla/internal/gmdj"
	"skalla/internal/plan"
	"skalla/internal/relation"
)

// layerInputs are what a workload hands the per-layer measurements taken
// after its traced phase.
type layerInputs struct {
	// coord plans the workload's queries; serve workloads instead dial a
	// coordinator of their own to the same sites.
	coord *core.Coordinator
	dial  func(ctx context.Context) (*core.Coordinator, func(), error)

	queries    []gmdj.Query
	sel        plan.Selection
	statements []string // Egil SQL parsed by the server (serve workloads)
}

// perLayer lists the per-layer metrics in report order. Every workload
// reports all of them; a layer its traffic does not reach reads 0.
var perLayer = []struct{ name, unit string }{
	{"engine.operator_ms_p50", "ms"},
	{"engine.base_ms_p50", "ms"},
	{"engine.local_ms_p50", "ms"},
	{"engine.ns_per_row_scanned", "ns"},
	{"engine.busy_frac", "frac"},
	{"engine.rows_scanned_per_query", "count"},
	{"store.seg_disk_reads_per_query", "count"},
	{"store.seg_cache_hit_frac", "frac"},
	{"transport.call_ms_p50", "ms"},
	{"transport.overhead_ms_p50", "ms"},
	{"transport.calls_per_query", "count"},
	{"transport.bytes_down_per_query", "bytes"},
	{"transport.bytes_up_per_query", "bytes"},
	{"transport.rows_down_per_query", "count"},
	{"transport.rows_up_per_query", "count"},
	{"transport.load_ms_p50", "ms"},
	{"relation.encode_ns_per_row", "ns"},
	{"relation.decode_ns_per_row", "ns"},
	{"relation.keyindex_build_ns_per_row", "ns"},
	{"relation.keyindex_probe_ns", "ns"},
	{"core.self_ms_per_query", "ms"},
	{"core.merge_ns_per_row_up", "ns"},
	{"core.rounds_per_query", "count"},
	{"core.admission_wait_ms_p95", "ms"},
	{"core.result_cache_hit_frac", "frac"},
	{"core.singleflight_follower_frac", "frac"},
	{"core.plan_cache_hit_frac", "frac"},
	{"core.stale_frac", "frac"},
	{"plan.compile_ms", "ms"},
	{"plan.auto_compile_ms", "ms"},
	{"plan.est_bytes_rel_err", "frac"},
	{"egil.parse_us_p50", "us"},
	{"server.protocol_ms_p50", "ms"},
	{"runtime.gc_cpu_frac", "frac"},
	{"trace.overhead_frac", "frac"},
}

// isBackendEval and isTransportEval select the spans that evaluate
// (metadata and loads excluded).
func isBackendEval(name string) bool {
	return isBackend(name) && name != spanBackendLoad
}

func isTransportEval(name string) bool {
	return isTransport(name) && name != spanCallLoad
}

// pairBackends matches each transport span to the backend span that served
// it: the backend span at the same site (and query, when the serving side
// sees the query ID) lies inside the call, and calls queued behind a busy
// connection also contain their predecessors' backend spans, so each backend
// span goes to the shortest call containing it.
func pairBackends(spans []span, isCall, isServe func(string) bool) map[int]int {
	bySite := map[int][]int{}
	for i, s := range spans {
		if isCall(s.Name) {
			bySite[s.Site] = append(bySite[s.Site], i)
		}
	}
	out := map[int]int{}
	for i, b := range spans {
		if !isServe(b.Name) {
			continue
		}
		best := -1
		for _, j := range bySite[b.Site] {
			c := spans[j]
			if b.QueryID != "" && c.QueryID != b.QueryID {
				continue
			}
			if c.Start <= b.Start && b.End <= c.End && (best < 0 || c.dur() < spans[best].dur()) {
				best = j
			}
		}
		if best >= 0 {
			if prev, ok := out[best]; !ok || spans[prev].dur() < b.dur() {
				out[best] = i
			}
		}
	}
	return out
}

// unionLen is the total length covered by the intervals.
func unionLen(spans []span) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total, end int64
	started := false
	var start int64
	for _, s := range spans {
		if !started || s.Start > end {
			if started {
				total += end - start
			}
			start, end, started = s.Start, s.End, true
			continue
		}
		if s.End > end {
			end = s.End
		}
	}
	if started {
		total += end - start
	}
	return time.Duration(total)
}

// layerMetrics computes the per-layer metrics from the traced phase ph, its
// spans, and direct calls into the relation, plan and egil layers; base is
// the untraced phase of the same run.
func layerMetrics(ctx context.Context, e env, base, ph *phase, tr *tracer) (map[string]metric, error) {
	spans := tr.snapshot()
	m := map[string]metric{}
	set := func(name string, v float64) {
		for _, l := range perLayer {
			if l.name == name {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					v = 0
				}
				m[name] = metric{v, l.unit}
				return
			}
		}
		panic("perfbench: unknown layer metric " + name)
	}

	// engine and store, from backend spans and their site breakdowns.
	var (
		opMs, baseMs, localMs      []float64
		backendNS                  float64
		scanned, segDisk, segCache int64
		callMs, overheadMs, loadMs []float64
		calls                      = map[string][]span{}
		queryDur                   = map[string]time.Duration{}
		backendLoads, callLoads    []span
	)
	for _, s := range spans {
		switch s.Name {
		case spanBackendOperator:
			opMs = append(opMs, ms(s.self()))
		case spanBackendBase:
			baseMs = append(baseMs, ms(s.self()))
		case spanBackendLocal:
			localMs = append(localMs, ms(s.self()))
		case spanQuery:
			queryDur[s.QueryID] = s.dur()
		case spanBackendLoad:
			backendLoads = append(backendLoads, s)
		case spanCallLoad:
			callLoads = append(callLoads, s)
		}
		if isBackendEval(s.Name) {
			backendNS += float64(s.self())
			if b := s.Breakdown; b != nil {
				scanned += b.RowsScanned
				segDisk += b.SegDiskReads
				segCache += b.SegCacheReads
			}
		}
		if isTransportEval(s.Name) {
			callMs = append(callMs, ms(s.dur()))
			calls[s.QueryID] = append(calls[s.QueryID], s)
		}
	}
	for ci, bi := range pairBackends(spans, isTransportEval, isBackendEval) {
		overheadMs = append(overheadMs, ms(spans[ci].dur()-spans[bi].self()))
	}
	loadSpans := append(append([]span(nil), callLoads...), backendLoads...)
	isLoadCall := func(n string) bool { return n == spanCallLoad }
	isLoadServe := func(n string) bool { return n == spanBackendLoad }
	for ci, bi := range pairBackends(loadSpans, isLoadCall, isLoadServe) {
		loadMs = append(loadMs, ms(loadSpans[ci].dur()-loadSpans[bi].dur()))
	}

	qs := ph.queries()
	var done []*op
	for _, o := range qs {
		if o.err == nil {
			done = append(done, o)
		}
	}
	n := float64(len(done))
	set("engine.operator_ms_p50", median(opMs))
	set("engine.base_ms_p50", median(baseMs))
	set("engine.local_ms_p50", median(localMs))
	set("engine.ns_per_row_scanned", ratio(backendNS, float64(scanned)))
	set("engine.busy_frac", ratio(backendNS, float64(ph.wall)*float64(runtime.GOMAXPROCS(0))))
	set("engine.rows_scanned_per_query", ratio(float64(scanned), n))
	set("store.seg_disk_reads_per_query", ratio(float64(segDisk), n))
	set("store.seg_cache_hit_frac", ratio(float64(segCache), float64(segCache+segDisk)))
	set("transport.call_ms_p50", median(callMs))
	set("transport.overhead_ms_p50", median(overheadMs))
	set("transport.load_ms_p50", median(loadMs))

	// transport counts and core, from the program's per-query accounting.
	var (
		nCalls, rounds, bDown, bUp, rDown, rUp float64
		selfNS, mergeNS, rowsUpMerged          float64
		queue, protocol, estErr                []float64
		cacheServed, planHits, wrong           float64
	)
	for _, o := range done {
		nCalls += float64(o.calls)
		rounds += float64(o.rounds)
		bDown += float64(o.bytesDown)
		bUp += float64(o.bytesUp)
		rDown += float64(o.rowsDown)
		rUp += float64(o.rowsUp)
		// Execute span: the caller's ExecuteWith call for batch workloads,
		// the server's own statement time for serve workloads.
		exec := queryDur[o.qid]
		if o.elapsedNS > 0 {
			exec = time.Duration(o.elapsedNS)
			queue = append(queue, ms(time.Duration(o.queueNS)))
			protocol = append(protocol, ms(o.lat-time.Duration(o.elapsedNS+o.queueNS)))
		}
		self := exec - unionLen(calls[o.qid])
		selfNS += float64(self)
		if o.rowsUp > 0 {
			mergeNS += float64(self)
			rowsUpMerged += float64(o.rowsUp)
		}
		if o.calls > 0 {
			actual := float64(o.wire())
			estErr = append(estErr, math.Abs(float64(o.estBytes)-actual)/actual)
		}
		if o.profiled && o.calls == 0 && o.shared != "follower" {
			cacheServed++
		}
		if o.planHit {
			planHits++
		}
		if !o.correct {
			wrong++
		}
	}
	set("transport.calls_per_query", ratio(nCalls, n))
	set("transport.bytes_down_per_query", ratio(bDown, n))
	set("transport.bytes_up_per_query", ratio(bUp, n))
	set("transport.rows_down_per_query", ratio(rDown, n))
	set("transport.rows_up_per_query", ratio(rUp, n))
	set("core.self_ms_per_query", ratio(selfNS, n)/1e6)
	set("core.merge_ns_per_row_up", ratio(mergeNS, rowsUpMerged))
	set("core.rounds_per_query", ratio(rounds, n))
	set("core.admission_wait_ms_p95", quantile(queue, 0.95))
	set("core.result_cache_hit_frac", ratio(cacheServed, n))
	set("core.singleflight_follower_frac", ratio(float64(ph.followers), n))
	set("core.plan_cache_hit_frac", ratio(planHits, n))
	set("core.stale_frac", ratio(wrong, n))
	set("plan.est_bytes_rel_err", median(estErr))
	set("server.protocol_ms_p50", median(protocol))
	set("runtime.gc_cpu_frac", ratio(base.gcCPU, base.totalCPU))
	set("trace.overhead_frac", ratio(median(ph.correctLatencies()), median(base.correctLatencies()))-1)

	enc, dec, build, probe, err := relationLayer(tr.fragments())
	if err != nil {
		return nil, fmt.Errorf("relation layer: %w", err)
	}
	set("relation.encode_ns_per_row", enc)
	set("relation.decode_ns_per_row", dec)
	set("relation.keyindex_build_ns_per_row", build)
	set("relation.keyindex_probe_ns", probe)

	in := e.layers()
	compile, auto, err := planLayer(ctx, in)
	if err != nil {
		return nil, fmt.Errorf("plan layer: %w", err)
	}
	set("plan.compile_ms", compile)
	set("plan.auto_compile_ms", auto)
	set("egil.parse_us_p50", egilLayer(in.statements))
	return m, nil
}

// relationPasses is how many times the relation layer's calls run over the
// captured fragments; each metric is the median over passes.
const relationPasses = 5

// relationLayer calls Marshal, Unmarshal, BuildKeyIndex and KeyIndex.Lookup
// directly on the H_i and X fragments the traced phase captured.
func relationLayer(frags []fragment) (enc, dec, build, probe float64, err error) {
	var encs, decs, builds, probes []float64
	for p := 0; p < relationPasses; p++ {
		var rows, lookups int
		var encNS, decNS, buildNS, probeNS time.Duration
		for _, f := range frags {
			cols, err := f.rel.Schema.Indexes(f.keys)
			if err != nil {
				return 0, 0, 0, 0, err
			}
			t0 := time.Now()
			b, err := relation.Marshal(f.rel)
			encNS += time.Since(t0)
			if err != nil {
				return 0, 0, 0, 0, err
			}
			t0 = time.Now()
			if _, err := relation.Unmarshal(b); err != nil {
				return 0, 0, 0, 0, err
			}
			decNS += time.Since(t0)
			t0 = time.Now()
			ki, err := relation.BuildKeyIndex(f.rel, f.keys)
			buildNS += time.Since(t0)
			if err != nil {
				return 0, 0, 0, 0, err
			}
			t0 = time.Now()
			for _, t := range f.rel.Tuples {
				if len(ki.Lookup(t, cols)) == 0 {
					return 0, 0, 0, 0, fmt.Errorf("key index lost a row of its own relation")
				}
			}
			probeNS += time.Since(t0)
			rows += f.rel.Len()
			lookups += f.rel.Len()
		}
		if rows == 0 {
			return 0, 0, 0, 0, nil
		}
		encs = append(encs, float64(encNS)/float64(rows))
		decs = append(decs, float64(decNS)/float64(rows))
		builds = append(builds, float64(buildNS)/float64(rows))
		probes = append(probes, float64(probeNS)/float64(lookups))
	}
	return median(encs), median(decs), median(builds), median(probes), nil
}

// planRepeats is how many times each query is compiled per selection.
const planRepeats = 5

// planLayer times Coordinator.PlanWith under the workload's selection and
// under auto (all 32 rule subsets).
func planLayer(ctx context.Context, in layerInputs) (compile, auto float64, err error) {
	coord := in.coord
	if in.dial != nil {
		var closeFn func()
		coord, closeFn, err = in.dial(ctx)
		if err != nil {
			return 0, 0, err
		}
		defer closeFn()
	}
	timeSel := func(sel plan.Selection) ([]float64, error) {
		var out []float64
		for r := 0; r < planRepeats; r++ {
			for _, q := range in.queries {
				t0 := time.Now()
				if _, err := coord.PlanWith(ctx, q, sel); err != nil {
					return nil, err
				}
				out = append(out, ms(time.Since(t0)))
			}
		}
		return out, nil
	}
	c, err := timeSel(in.sel)
	if err != nil {
		return 0, 0, err
	}
	a, err := timeSel(plan.SelectAuto())
	if err != nil {
		return 0, 0, err
	}
	return median(c), median(a), nil
}

// egilLayer times egil.ParseStatement over the statement space (0 for
// workloads that send no SQL).
func egilLayer(stmts []string) float64 {
	var us []float64
	for r := 0; r < 3; r++ {
		for _, s := range stmts {
			t0 := time.Now()
			if _, err := egil.ParseStatement(s); err != nil {
				continue
			}
			us = append(us, float64(time.Since(t0))/1e3)
		}
	}
	return median(us)
}
