package gmdj

import (
	"fmt"
	"strconv"

	"skalla/internal/agg"
	"skalla/internal/expr"
	"skalla/internal/obs"
	"skalla/internal/relation"
)

// RowSource is a scannable detail relation: evaluation never needs random
// access to detail rows, only sequential scans, so sites can serve
// partitions from memory (relation.Relation via SourceOf) or from disk
// (internal/store.Table) behind the same interface with bounded memory.
type RowSource interface {
	// Schema describes the rows.
	Schema() relation.Schema
	// Scan streams every row through fn; an fn error aborts the scan.
	Scan(fn func(relation.Tuple) error) error
	// Len returns the row count.
	Len() int
}

// scanCounted streams src through fn like src.Scan, charging the rows visited
// to the engine rows-scanned counter — one counter add per scan, never per
// row, so the accounting stays off the hot path.
func scanCounted(src RowSource, fn func(relation.Tuple) error) error {
	rows := 0
	err := src.Scan(func(t relation.Tuple) error {
		rows++
		return fn(t)
	})
	obs.EngineRowsScanned.Add(int64(rows))
	return err
}

// scanCountedWorker is scanCounted for one shard of a parallel evaluation: the
// visited rows are additionally charged to the per-worker counter, so skewed
// shard assignments show up in /metrics.
func scanCountedWorker(src RowSource, worker int, fn func(relation.Tuple) error) error {
	rows := 0
	err := src.Scan(func(t relation.Tuple) error {
		rows++
		return fn(t)
	})
	obs.EngineRowsScanned.Add(int64(rows))
	obs.EngineWorkerRows.With(strconv.Itoa(worker)).Add(int64(rows))
	return err
}

// scanShardCounted dispatches between the sequential (worker < 0) and
// per-worker-labeled counted scans.
func scanShardCounted(src RowSource, worker int, fn func(relation.Tuple) error) error {
	if worker < 0 {
		return scanCounted(src, fn)
	}
	return scanCountedWorker(src, worker, fn)
}

// SourceOf adapts a materialized relation to a RowSource.
func SourceOf(r *relation.Relation) RowSource { return relSource{r} }

type relSource struct{ r *relation.Relation }

func (s relSource) Schema() relation.Schema { return s.r.Schema }
func (s relSource) Len() int                { return s.r.Len() }
func (s relSource) Scan(fn func(relation.Tuple) error) error {
	for _, t := range s.r.Tuples {
		if err := fn(t); err != nil {
			return err
		}
	}
	return nil
}

// Split implements SplittableSource: contiguous row ranges of near-equal
// size, so the concatenation of the shard scans is exactly the full scan.
func (s relSource) Split(n int) []RowSource {
	rows := s.r.Len()
	if n > rows {
		n = rows
	}
	if n <= 1 {
		return nil
	}
	out := make([]RowSource, n)
	for w := 0; w < n; w++ {
		lo, hi := rows*w/n, rows*(w+1)/n
		out[w] = relSource{&relation.Relation{Schema: s.r.Schema, Tuples: s.r.Tuples[lo:hi]}}
	}
	return out
}

// DataSource resolves detail relation names to scannable sources.
type DataSource interface {
	SchemaSource
	DetailSource(name string) (RowSource, error)
}

// Data is a map-based DataSource over materialized relations.
//
//skallavet:allow stringkey -- catalog keyed by relation name: resolved once per query, not per tuple
type Data map[string]*relation.Relation

// DetailSchema implements SchemaSource.
func (d Data) DetailSchema(name string) (relation.Schema, error) {
	r, err := d.DetailRelation(name)
	if err != nil {
		return nil, err
	}
	return r.Schema, nil
}

// DetailRelation returns the named materialized relation.
func (d Data) DetailRelation(name string) (*relation.Relation, error) {
	r, ok := d[name]
	if !ok {
		return nil, fmt.Errorf("gmdj: unknown detail relation %q", name)
	}
	return r, nil
}

// DetailSource implements DataSource.
func (d Data) DetailSource(name string) (RowSource, error) {
	r, err := d.DetailRelation(name)
	if err != nil {
		return nil, err
	}
	return SourceOf(r), nil
}

// EvalCentral evaluates a complex GMDJ expression against fully materialized
// data, exactly per Definition 1: each base tuple's aggregates are computed
// over RNG(b, R, θ). It is the centralized reference implementation — the
// role Daytona plays in the paper — and the correctness oracle for the
// distributed evaluator. Equality-linked conditions are evaluated with a
// hash-grouping fast path; set useHash=false to force the literal
// nested-loop semantics (used to cross-check the fast path).
func EvalCentral(q Query, src DataSource, useHash bool) (*relation.Relation, error) {
	x, err := EvalCentralX(q, src, useHash)
	if err != nil {
		return nil, err
	}
	return x.Project(FinalColumns(q))
}

// EvalCentralX is EvalCentral without the final projection: it returns the
// full base-result structure X (base columns, physical sub-aggregate columns
// and derived AVG columns). The distributed engine's local evaluation rounds
// (Prop. 2 / Cor. 1) ship this form so the coordinator can still merge
// physical columns by key.
func EvalCentralX(q Query, src DataSource, useHash bool) (*relation.Relation, error) {
	if err := q.Validate(src); err != nil {
		return nil, err
	}
	return evalPrefixX(q, src, len(q.Ops), useHash, 1)
}

// EvalPrefixXWorkers evaluates the base query and the first upTo operators,
// returning the intermediate base-result structure X_upTo, with
// worker-parallel scans (see EvalBaseWorkers / AccumulateOperatorWorkers for
// the workers contract). The query must already be validated.
func EvalPrefixXWorkers(q Query, src DataSource, upTo int, useHash bool, workers int) (*relation.Relation, error) {
	if upTo < 0 || upTo > len(q.Ops) {
		return nil, fmt.Errorf("gmdj: prefix %d out of range (query has %d operators)", upTo, len(q.Ops))
	}
	return evalPrefixX(q, src, upTo, useHash, workers)
}

func evalPrefixX(q Query, src DataSource, upTo int, useHash bool, workers int) (*relation.Relation, error) {
	baseRel, err := src.DetailSource(q.Base.Detail)
	if err != nil {
		return nil, err
	}
	x, err := EvalBaseWorkers(q.Base, baseRel, workers)
	if err != nil {
		return nil, err
	}
	for i := 0; i < upTo; i++ {
		op := q.Ops[i]
		detail, err := src.DetailSource(op.Detail)
		if err != nil {
			return nil, err
		}
		x, err = applyOperator(x, op, detail, useHash, workers)
		if err != nil {
			return nil, fmt.Errorf("gmdj: MD%d: %w", i+1, err)
		}
	}
	return x, nil
}

// EvalBase computes the base-values relation B_0 from a detail source: an
// optional filter followed by a distinct projection, generalized to grouping
// sets when bq.GroupingSets is non-empty (the union over sets of NULL-padded
// distinct projections; see BaseQuery). The detail rows are streamed once;
// memory is bounded by the number of distinct base values.
func EvalBase(bq BaseQuery, detail RowSource) (*relation.Relation, error) {
	return EvalBaseWorkers(bq, detail, 1)
}

// EvalBaseWorkers is EvalBase with the detail scan sharded across workers
// (0 = auto, 1 = sequential; parallelism needs a SplittableSource). The
// result is identical to the sequential evaluation including row order:
// shards are contiguous, each worker records its shard's first occurrences in
// order, and the merge dedupes in shard order — so global first-occurrence
// order is preserved exactly.
func EvalBaseWorkers(bq BaseQuery, detail RowSource, workers int) (*relation.Relation, error) {
	p, err := compileBase(bq, detail)
	if err != nil {
		return nil, err
	}
	if shards := splitSource(detail, resolveWorkers(workers, detail.Len())); shards != nil {
		return evalBaseParallel(p, shards)
	}
	out := relation.New(p.schema)
	seen := relation.NewKeySet(64)
	if err := p.scanShard(detail, -1, seen, &out.Tuples); err != nil {
		return nil, err
	}
	return out, nil
}

// baseProg is a compiled base query: the bound filter, projection indexes and
// grouping-set masks. All fields are read-only after compileBase, so shards
// can share one program.
type baseProg struct {
	where   expr.Expr
	idx     []int
	allCols []int
	masks   [][]bool
	schema  relation.Schema
}

func compileBase(bq BaseQuery, detail RowSource) (*baseProg, error) {
	schema := detail.Schema()
	p := &baseProg{}
	if bq.Where != nil {
		var err error
		p.where, err = expr.Bind(bq.Where, nil, schema)
		if err != nil {
			return nil, err
		}
	}
	idx, err := schema.Indexes(bq.Cols)
	if err != nil {
		return nil, err
	}
	p.idx = idx
	p.schema = schema.Project(idx)
	p.allCols = make([]int, len(bq.Cols))
	for i := range p.allCols {
		p.allCols[i] = i
	}

	// Precompute the grouping-set masks; the plain distinct projection is
	// the single full set.
	sets := bq.GroupingSets
	if len(sets) == 0 {
		sets = [][]string{bq.Cols}
	}
	p.masks = make([][]bool, len(sets))
	for si, set := range sets {
		mask := make([]bool, len(bq.Cols))
		for _, col := range set {
			for i, c := range bq.Cols {
				if c == col {
					mask[i] = true
				}
			}
		}
		p.masks[si] = mask
	}
	return p, nil
}

// scanShard streams one shard of the detail source, interning each surviving
// projection into seen and appending fresh ones to out in first-occurrence
// order. worker < 0 is the sequential (unlabeled) scan.
func (p *baseProg) scanShard(src RowSource, worker int, seen *relation.KeySet, out *[]relation.Tuple) error {
	scratch := make(relation.Tuple, len(p.idx))
	return scanShardCounted(src, worker, func(t relation.Tuple) error {
		if p.where != nil {
			ok, err := expr.EvalCond(p.where, nil, t)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
		for _, mask := range p.masks {
			for i, j := range p.idx {
				if mask[i] {
					scratch[i] = t[j]
				} else {
					scratch[i] = relation.Null
				}
			}
			// Add interns the projection only for fresh keys; duplicates cost
			// one hash probe and no allocation.
			interned, fresh := seen.Add(scratch, p.allCols)
			if fresh {
				*out = append(*out, interned)
			}
		}
		return nil
	})
}

// OperatorAccum holds the per-base-row physical accumulators of one MD
// operator evaluation over one detail relation (or one partition of it), one
// slice per grouping variable, plus the Touched flags: Touched[i] is the
// |RNG(b_i, R, θ_1 ∨ … ∨ θ_m)| > 0 test of Proposition 1, used for
// distribution-independent group reduction.
type OperatorAccum struct {
	Layouts []*agg.Layout
	Accs    [][]relation.Tuple // [variable][baseRow]
	Touched []bool
}

// AccumulateOperatorWorkers evaluates one MD operator's grouping variables
// over the detail rows, per Definition 1, producing physical sub-aggregate
// slices for every base row. The detail source is scanned once per grouping
// variable; conditions with equality links use a hash-grouping fast path over
// the base relation, grouping-set conditions use the 2^n-probe cube path, and
// everything else falls back to the literal nested loop (detail-outer, so
// disk-backed sources are still scanned sequentially).
//
// The detail scans are sharded across workers (0 = auto, 1 = sequential;
// parallelism needs a SplittableSource). Each worker accumulates private per-base-row partials
// over its shard; the partials are merged with the same super-aggregate
// decomposition that merges per-site sub-aggregates — Theorem 1 applies
// unchanged, a worker shard is just a finer horizontal partition — in worker
// order, so results match the sequential evaluation (byte-identically for
// integer-valued aggregates; see DESIGN.md §11 for the float caveat).
func AccumulateOperatorWorkers(x *relation.Relation, op Operator, detail RowSource, useHash bool, workers int) (*OperatorAccum, error) {
	states, err := buildVarStates(x, op, detail.Schema(), useHash)
	if err != nil {
		return nil, err
	}
	out := &OperatorAccum{
		Layouts: make([]*agg.Layout, len(op.Vars)),
		Accs:    make([][]relation.Tuple, len(op.Vars)),
		Touched: make([]bool, x.Len()),
	}
	for vi, st := range states {
		out.Layouts[vi] = st.layout
		accs := make([]relation.Tuple, x.Len())
		for i := range accs {
			accs[i] = st.layout.Identity()
		}
		out.Accs[vi] = accs
	}
	if shards := splitSource(detail, resolveWorkers(workers, detail.Len())); shards != nil {
		if err := accumulateParallel(x, states, out, shards); err != nil {
			return nil, err
		}
		return out, nil
	}
	hits := make([]uint32, x.Len())
	for vi, st := range states {
		if err := st.scan(x, detail, out.Accs[vi], hits, -1); err != nil {
			return nil, err
		}
	}
	for i, h := range hits {
		out.Touched[i] = h > 0
	}
	return out, nil
}

// varState is one grouping variable compiled against the base and detail
// schemas: the aggregate layout, the bound condition, and (when usable) the
// hash-grouping index over the base relation. All fields are read-only after
// buildVarStates — expression evaluation is a stateless tree walk and
// KeyIndex.Lookup never mutates — so concurrent shard scans share one state.
type varState struct {
	layout  *agg.Layout
	cond    expr.Expr
	hashIdx *relation.KeyIndex
	probe   []int
	// rollup marks the grouping-set fast path: probe holds the detail
	// column positions of the dimensions, and every detail row is probed
	// with all 2^n NULL paddings (each base row matches at most one —
	// the one mirroring its own NULL pattern).
	rollup bool
}

func buildVarStates(x *relation.Relation, op Operator, detailSchema relation.Schema, useHash bool) ([]*varState, error) {
	states := make([]*varState, len(op.Vars))
	for vi, v := range op.Vars {
		layout, err := agg.NewLayout(v.Aggs, detailSchema)
		if err != nil {
			return nil, err
		}
		cond, err := expr.Bind(v.Cond, x.Schema, detailSchema)
		if err != nil {
			return nil, err
		}
		st := &varState{layout: layout, cond: cond}
		if useHash {
			links := expr.EqualityLinks(cond)
			rollup := false
			if len(links) == 0 {
				// Grouping-set conditions have their equalities under ORs;
				// recognize the rollup shape and use the 2^n-probe cube path.
				if rl, ok := expr.RollupLinks(cond); ok && len(rl) <= 16 {
					links, rollup = rl, true
				}
			}
			if len(links) > 0 {
				baseCols := make([]string, len(links))
				st.probe = make([]int, len(links))
				usable := true
				for li, l := range links {
					baseCols[li] = l.Base
					di := detailSchema.Index(l.Detail)
					if di < 0 {
						usable = false
						break
					}
					st.probe[li] = di
				}
				if usable {
					if idx, err := relation.BuildKeyIndex(x, baseCols); err == nil {
						st.hashIdx = idx
						st.rollup = rollup
					}
				}
			}
		}
		states[vi] = st
	}
	return states, nil
}

// scan accumulates this grouping variable over one detail shard: accs[i]
// receives base row i's physical partials, hits[i] counts its accumulations
// (feeding both the Prop. 1 Touched flags and the skew-aware merge planner).
// worker < 0 is the sequential (unlabeled) scan.
func (st *varState) scan(x *relation.Relation, detail RowSource, accs []relation.Tuple, hits []uint32, worker int) error {
	return scanShardCounted(detail, worker, st.feeder(x, accs, hits))
}

// feeder returns this grouping variable's per-detail-row accumulation step
// over accs/hits, decoupled from the scan that drives it: scan drives one
// feeder per pass, while the fan-in path (AccumulateOperatorsFanIn) drives
// many registered feeders — across grouping variables and across whole
// operator jobs — from a single shared detail scan. Each closure carries its
// own probe scratch, so concurrent shard feeders never share mutable state.
func (st *varState) feeder(x *relation.Relation, accs []relation.Tuple, hits []uint32) func(relation.Tuple) error {
	if st.hashIdx != nil && st.rollup {
		n := len(st.probe)
		padded := make(relation.Tuple, n)
		paddedCols := make([]int, n)
		for i := range paddedCols {
			paddedCols[i] = i
		}
		return func(dr relation.Tuple) error {
			// A NULL detail value pads identically whether its bit is
			// set or not; restrict masks to non-NULL dimensions so no
			// probe (and hence no base row) repeats for this detail row.
			nullBits := 0
			for i, di := range st.probe {
				if dr[di].IsNull() {
					nullBits |= 1 << i
				}
			}
			for mask := 0; mask < 1<<n; mask++ {
				if mask&nullBits != 0 {
					continue
				}
				for i, di := range st.probe {
					if mask&(1<<i) != 0 {
						padded[i] = dr[di]
					} else {
						padded[i] = relation.Null
					}
				}
				for _, bi := range st.hashIdx.Lookup(padded, paddedCols) {
					ok, err := expr.EvalCond(st.cond, x.Tuples[bi], dr)
					if err != nil {
						return err
					}
					if ok {
						if err := st.layout.Accumulate(accs[bi], dr); err != nil {
							return err
						}
						hits[bi]++
					}
				}
			}
			return nil
		}
	}
	if st.hashIdx != nil {
		return func(dr relation.Tuple) error {
			for _, bi := range st.hashIdx.Lookup(dr, st.probe) {
				ok, err := expr.EvalCond(st.cond, x.Tuples[bi], dr)
				if err != nil {
					return err
				}
				if ok {
					if err := st.layout.Accumulate(accs[bi], dr); err != nil {
						return err
					}
					hits[bi]++
				}
			}
			return nil
		}
	}
	return func(dr relation.Tuple) error {
		for bi, br := range x.Tuples {
			ok, err := expr.EvalCond(st.cond, br, dr)
			if err != nil {
				return err
			}
			if ok {
				if err := st.layout.Accumulate(accs[bi], dr); err != nil {
					return err
				}
				hits[bi]++
			}
		}
		return nil
	}
}

// ExtendedSchema returns the base schema extended with the operator's
// physical and derived columns, in layout order.
func (a *OperatorAccum) ExtendedSchema(base relation.Schema) (relation.Schema, error) {
	out := base.Clone()
	var err error
	for _, l := range a.Layouts {
		if out, err = out.Concat(l.PhysSchema()); err != nil {
			return nil, err
		}
		if out, err = out.Concat(l.DerivedSchema()); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ExtendRow returns base row i's values followed by its physical and derived
// aggregate values.
func (a *OperatorAccum) ExtendRow(baseRow relation.Tuple, i int) relation.Tuple {
	row := make(relation.Tuple, 0, len(baseRow)+a.physWidth())
	row = append(row, baseRow...)
	for vi, l := range a.Layouts {
		row = append(row, a.Accs[vi][i]...)
		row = append(row, l.ComputeDerived(a.Accs[vi][i])...)
	}
	return row
}

// PhysRow returns only base row i's physical aggregate values across all
// variables (the sub-aggregate payload shipped in H_i rows).
func (a *OperatorAccum) PhysRow(i int) relation.Tuple {
	var row relation.Tuple
	for vi := range a.Layouts {
		row = append(row, a.Accs[vi][i]...)
	}
	return row
}

// PhysSchema returns the concatenated physical schema across all variables.
func (a *OperatorAccum) PhysSchema() (relation.Schema, error) {
	var out relation.Schema
	var err error
	for _, l := range a.Layouts {
		if out, err = out.Concat(l.PhysSchema()); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (a *OperatorAccum) physWidth() int {
	n := 0
	for _, l := range a.Layouts {
		n += len(l.Phys) + len(l.Derived)
	}
	return n
}

// applyOperator evaluates one MD operator: for every tuple of the incoming
// base-values relation x it computes, per grouping variable, the aggregates
// over the detail rows satisfying the variable's condition, and returns x
// extended with the new physical and derived columns. x is not modified.
// Detail scans run on workers (see AccumulateOperatorWorkers).
func applyOperator(x *relation.Relation, op Operator, detail RowSource, useHash bool, workers int) (*relation.Relation, error) {
	acc, err := AccumulateOperatorWorkers(x, op, detail, useHash, workers)
	if err != nil {
		return nil, err
	}
	outSchema, err := acc.ExtendedSchema(x.Schema)
	if err != nil {
		return nil, err
	}
	out := relation.New(outSchema)
	out.Tuples = make([]relation.Tuple, x.Len())
	for i, br := range x.Tuples {
		out.Tuples[i] = acc.ExtendRow(br, i)
	}
	return out, nil
}
