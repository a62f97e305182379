package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"skalla/internal/engine"
	"skalla/internal/gmdj"
	"skalla/internal/obs"
	"skalla/internal/relation"
	"skalla/internal/stats"
	"skalla/internal/transport"
)

// span is one timed call across a layer boundary. Spans of one query share
// QueryID; Parent is resolved when the trace is written (a site call's
// parent is its query span, a backend call's parent the site call that
// contains it), so the hot path only appends.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	QueryID string `json:"query"`
	Site    int    `json:"site"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	// Breakdown is the site recorder's snapshot for backend spans.
	Breakdown *obs.SiteBreakdown `json:"breakdown,omitempty"`
	// EmitNS is the time a backend span spent inside the transport's emit
	// callback, which encodes each H_i block and, on a streaming transport,
	// hands it to the coordinator's merge before returning.
	EmitNS int64 `json:"emit_ns,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// self is the span's duration minus the time spent downstream in emit.
func (s *span) self() time.Duration { return s.dur() - time.Duration(s.EmitNS) }

// fragment is a relation captured at the backend boundary for the relation
// layer's direct measurements, with the key columns it is indexed on.
type fragment struct {
	rel  *relation.Relation
	keys []string
}

// maxCapturedRows bounds the rows of captured H_i / X fragments.
const maxCapturedRows = 200000

// tracer keeps spans in memory; nothing is written until the run ends.
type tracer struct {
	epoch time.Time

	mu       sync.Mutex
	spans    []span
	frags    []fragment
	fragRows int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// record appends a finished span.
func (t *tracer) record(s span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = int64(len(t.spans) + 1)
	t.spans = append(t.spans, s)
}

// capture keeps a private copy of rel while the row budget lasts. The copy
// is made outside the lock, so other spans are not held up behind it.
func (t *tracer) capture(rel *relation.Relation, keys []string) {
	if rel == nil || rel.Len() == 0 {
		return
	}
	t.mu.Lock()
	full := t.fragRows >= maxCapturedRows
	if !full {
		t.fragRows += rel.Len()
	}
	t.mu.Unlock()
	if full {
		return
	}
	f := fragment{rel: rel.Clone(), keys: append([]string(nil), keys...)}
	t.mu.Lock()
	t.frags = append(t.frags, f)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) fragments() []fragment {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]fragment(nil), t.frags...)
}

// link fills in parents: a transport span's parent is the query span with
// the same ID, a backend span's parent the transport call that served it.
func link(spans []span) {
	queries := map[string]int64{}
	for _, s := range spans {
		if s.Name == spanQuery {
			queries[s.QueryID] = s.ID
		}
	}
	for i, s := range spans {
		if isTransport(s.Name) {
			spans[i].Parent = queries[s.QueryID]
		}
	}
	for ci, bi := range pairBackends(spans, isTransport, isBackend) {
		spans[bi].Parent = spans[ci].ID
	}
}

// clear drops everything recorded so far (the build's warm-up).
func (t *tracer) clear() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans, t.frags, t.fragRows = nil, nil, 0
}

// write links the spans and writes them as JSON lines to path.
func (t *tracer) write(path string) error {
	spans := t.snapshot()
	link(spans)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Span names. Transport spans time the coordinator→transport boundary
// (transport.Site), backend spans the transport→site-evaluator boundary
// (transport.Backend around engine.Site).
const (
	spanQuery = "query"

	spanCallBase     = "transport.EvalBase"
	spanCallOperator = "transport.EvalOperator"
	spanCallLocal    = "transport.EvalLocal"
	spanCallBatch    = "transport.EvalOperatorBatch"
	spanCallLoad     = "transport.Load"
	spanCallMeta     = "transport.meta"

	spanBackendBase     = "engine.EvalBase"
	spanBackendOperator = "engine.EvalOperator"
	spanBackendLocal    = "engine.EvalLocal"
	spanBackendBatch    = "engine.EvalOperatorBatch"
	spanBackendLoad     = "engine.Load"
	spanBackendMeta     = "engine.meta"
)

func isTransport(name string) bool {
	switch name {
	case spanCallBase, spanCallOperator, spanCallLocal, spanCallBatch, spanCallLoad:
		return true
	}
	return false
}

func isBackend(name string) bool {
	switch name {
	case spanBackendBase, spanBackendOperator, spanBackendLocal, spanBackendBatch, spanBackendLoad:
		return true
	}
	return false
}

// timed runs fn as one span named name at site.
func (t *tracer) timed(ctx context.Context, name string, site int, fn func()) {
	start := t.now()
	fn()
	t.record(span{Name: name, QueryID: obs.QueryIDFrom(ctx), Site: site, Start: start, End: t.now()})
}

// tracedSite times every call across the coordinator→transport boundary.
type tracedSite struct {
	inner transport.Site
	tr    *tracer
}

// traceSite wraps s, keeping every optional capability s has: a wrapper that
// hid BatchSite or Loader would silently move the coordinator onto another
// path and measure something else.
func traceSite(s transport.Site, tr *tracer) transport.Site {
	base := &tracedSite{inner: s, tr: tr}
	bs, isBatch := s.(transport.BatchSite)
	ld, isLoader := s.(transport.Loader)
	switch {
	case isBatch && isLoader:
		return struct {
			*tracedSite
			tracedBatchSite
			tracedLoader
		}{base, tracedBatchSite{bs, tr}, tracedLoader{ld, tr, s.ID()}}
	case isBatch:
		return struct {
			*tracedSite
			tracedBatchSite
		}{base, tracedBatchSite{bs, tr}}
	case isLoader:
		return struct {
			*tracedSite
			tracedLoader
		}{base, tracedLoader{ld, tr, s.ID()}}
	}
	return base
}

func (s *tracedSite) ID() int { return s.inner.ID() }

func (s *tracedSite) EvalBase(ctx context.Context, bq gmdj.BaseQuery) (rel *relation.Relation, call stats.Call, err error) {
	s.tr.timed(ctx, spanCallBase, s.inner.ID(), func() { rel, call, err = s.inner.EvalBase(ctx, bq) })
	return rel, call, err
}

func (s *tracedSite) EvalOperator(ctx context.Context, req engine.OperatorRequest) (rel *relation.Relation, call stats.Call, err error) {
	s.tr.timed(ctx, spanCallOperator, s.inner.ID(), func() { rel, call, err = s.inner.EvalOperator(ctx, req) })
	return rel, call, err
}

func (s *tracedSite) EvalOperatorStream(ctx context.Context, req engine.OperatorRequest, sink func(*relation.Relation) error) (call stats.Call, err error) {
	s.tr.timed(ctx, spanCallOperator, s.inner.ID(), func() { call, err = s.inner.EvalOperatorStream(ctx, req, sink) })
	return call, err
}

func (s *tracedSite) EvalLocal(ctx context.Context, req engine.LocalRequest) (rel *relation.Relation, call stats.Call, err error) {
	s.tr.timed(ctx, spanCallLocal, s.inner.ID(), func() { rel, call, err = s.inner.EvalLocal(ctx, req) })
	return rel, call, err
}

func (s *tracedSite) DetailSchema(ctx context.Context, name string) (sch relation.Schema, err error) {
	s.tr.timed(ctx, spanCallMeta, s.inner.ID(), func() { sch, err = s.inner.DetailSchema(ctx, name) })
	return sch, err
}

func (s *tracedSite) Tables(ctx context.Context) (ts []engine.TableInfo, err error) {
	s.tr.timed(ctx, spanCallMeta, s.inner.ID(), func() { ts, err = s.inner.Tables(ctx) })
	return ts, err
}

type tracedBatchSite struct {
	inner transport.BatchSite
	tr    *tracer
}

func (s tracedBatchSite) EvalOperatorBatchStream(ctx context.Context, reqs []engine.OperatorRequest, queryIDs []string, sink func(member int, block *relation.Relation) error) (calls []stats.Call, err error) {
	s.tr.timed(ctx, spanCallBatch, s.inner.ID(), func() {
		calls, err = s.inner.EvalOperatorBatchStream(ctx, reqs, queryIDs, sink)
	})
	return calls, err
}

type tracedLoader struct {
	inner transport.Loader
	tr    *tracer
	site  int
}

func (s tracedLoader) Load(ctx context.Context, name string, rel *relation.Relation) (err error) {
	s.tr.timed(ctx, spanCallLoad, s.site, func() { err = s.inner.Load(ctx, name, rel) })
	return err
}

// tracedBackend times every call across the transport→site-evaluator
// boundary and attaches the site recorder's breakdown to the span. It also
// captures the H_i blocks, shipped X fragments and local results it sees, for
// the relation layer's direct measurements.
type tracedBackend struct {
	inner transport.Backend
	tr    *tracer
}

// traceBackend wraps b, keeping BatchBackend when b has it.
func traceBackend(b transport.Backend, tr *tracer) transport.Backend {
	base := &tracedBackend{inner: b, tr: tr}
	if bb, ok := b.(transport.BatchBackend); ok {
		return struct {
			*tracedBackend
			tracedBatchBackend
		}{base, tracedBatchBackend{bb, tr}}
	}
	return base
}

// evalSpan runs fn as a backend span carrying the request's breakdown; fn
// reports the time it spent inside emit callbacks through its argument.
func (t *tracer) evalSpan(ctx context.Context, name string, site int, fn func(emitNS *int64)) {
	var emitNS int64
	start := t.now()
	fn(&emitNS)
	end := t.now()
	s := span{Name: name, QueryID: obs.QueryIDFrom(ctx), Site: site, Start: start, End: end, EmitNS: emitNS}
	if rec := obs.RecorderFrom(ctx); rec != nil {
		b := rec.Snapshot()
		s.Breakdown = &b
	}
	t.record(s)
}

func (b *tracedBackend) ID() int { return b.inner.ID() }

func (b *tracedBackend) EvalBase(ctx context.Context, bq gmdj.BaseQuery) (rel *relation.Relation, err error) {
	b.tr.evalSpan(ctx, spanBackendBase, b.inner.ID(), func(*int64) { rel, err = b.inner.EvalBase(ctx, bq) })
	return rel, err
}

func (b *tracedBackend) EvalOperatorBlocks(ctx context.Context, req engine.OperatorRequest, emit func(*relation.Relation) error) (err error) {
	b.tr.capture(req.Base, req.Keys)
	b.tr.evalSpan(ctx, spanBackendOperator, b.inner.ID(), func(emitNS *int64) {
		err = b.inner.EvalOperatorBlocks(ctx, req, func(block *relation.Relation) error {
			b.tr.capture(block, req.Keys)
			t0 := time.Now()
			err := emit(block)
			*emitNS += int64(time.Since(t0))
			return err
		})
	})
	return err
}

func (b *tracedBackend) EvalLocal(ctx context.Context, req engine.LocalRequest) (rel *relation.Relation, err error) {
	b.tr.evalSpan(ctx, spanBackendLocal, b.inner.ID(), func(*int64) { rel, err = b.inner.EvalLocal(ctx, req) })
	if err == nil {
		b.tr.capture(rel, req.Query.Base.Cols)
	}
	return rel, err
}

func (b *tracedBackend) DetailSchema(ctx context.Context, name string) (sch relation.Schema, err error) {
	b.tr.timed(ctx, spanBackendMeta, b.inner.ID(), func() { sch, err = b.inner.DetailSchema(ctx, name) })
	return sch, err
}

func (b *tracedBackend) Load(ctx context.Context, name string, rel *relation.Relation) (err error) {
	b.tr.timed(ctx, spanBackendLoad, b.inner.ID(), func() { err = b.inner.Load(ctx, name, rel) })
	return err
}

func (b *tracedBackend) Tables(ctx context.Context) (ts []engine.TableInfo) {
	b.tr.timed(ctx, spanBackendMeta, b.inner.ID(), func() { ts = b.inner.Tables(ctx) })
	return ts
}

type tracedBatchBackend struct {
	inner transport.BatchBackend
	tr    *tracer
}

func (b tracedBatchBackend) EvalOperatorBatch(ctx context.Context, reqs []engine.OperatorRequest, emit func(member int, block *relation.Relation) error) (err error) {
	b.tr.evalSpan(ctx, spanBackendBatch, b.inner.ID(), func(emitNS *int64) {
		err = b.inner.EvalOperatorBatch(ctx, reqs, func(member int, block *relation.Relation) error {
			t0 := time.Now()
			err := emit(member, block)
			*emitNS += int64(time.Since(t0))
			return err
		})
	})
	return err
}
