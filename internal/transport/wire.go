package transport

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"skalla/internal/engine"
	"skalla/internal/gmdj"
	"skalla/internal/obs"
	"skalla/internal/relation"
	"skalla/internal/stats"
)

// ReqKind discriminates request payloads.
type ReqKind uint8

const (
	// KindHello requests the site's identity (sent once per connection).
	KindHello ReqKind = iota
	// KindBase evaluates the base query fragment.
	KindBase
	// KindOperator evaluates one MD operator.
	KindOperator
	// KindLocal evaluates a query prefix locally.
	KindLocal
	// KindSchema fetches a detail relation's schema.
	KindSchema
	// KindLoad installs a relation partition at the site.
	KindLoad
	// KindTables lists the site's relation inventory.
	KindTables
	// KindBatch evaluates several MD operator requests over one shared scan
	// of the detail partition (the site-side fan-in of the shared-work layer).
	KindBatch
)

// Request is the wire request envelope. QueryID carries the coordinator's
// query identifier to the site so remote logs and metrics correlate with
// coordinator rounds; gob tolerates it missing (old peers) in either
// direction, so the protocol stays compatible.
type Request struct {
	Kind     ReqKind
	QueryID  string
	Base     *gmdj.BaseQuery
	Operator *engine.OperatorRequest
	Local    *engine.LocalRequest
	Schema   string
	LoadName string
	LoadRel  *relation.Relation
	// Round and Attempt extend the trace context: the coordinator round that
	// issued the call and the 1-based retry attempt. Appended fields — gob
	// tolerates them missing in either direction, so old peers interoperate.
	Round   string
	Attempt int
	// Batch carries a KindBatch request's member operator requests (all over
	// the same detail relation); BatchQueryIDs carries the per-member query
	// identifiers so site logs and metrics attribute each member to the query
	// it serves. Appended fields — see Round.
	Batch         []engine.OperatorRequest
	BatchQueryIDs []string
}

// Response is the wire response envelope. Operator evaluations may stream:
// each H_i block arrives in its own response with More set; the terminal
// response (More unset) carries the site's total compute time and any error.
type Response struct {
	Err       string
	Rel       *relation.Relation
	Schema    relation.Schema
	Tables    []engine.TableInfo
	SiteID    int
	ComputeNS int64
	More      bool
	// Profile is the site-side cost breakdown of this request (nil from
	// peers built before the profiler). Appended field — see Request.
	Profile *obs.SiteBreakdown
}

// Backend is what a transport endpoint serves: the evaluation surface of a
// local warehouse. *engine.Site implements it directly; relay nodes
// (core.Relay, the multi-tier coordinator architecture) implement it too, so
// a mid-tier aggregation process is served exactly like a site. Every
// evaluation method takes the serving context so cancellation (a dropped
// coordinator connection, a per-attempt fault-tolerance timeout) propagates
// all the way down the tree instead of stranding work at the leaves.
type Backend interface {
	ID() int
	EvalBase(ctx context.Context, bq gmdj.BaseQuery) (*relation.Relation, error)
	EvalOperatorBlocks(ctx context.Context, req engine.OperatorRequest, emit func(*relation.Relation) error) error
	EvalLocal(ctx context.Context, req engine.LocalRequest) (*relation.Relation, error)
	DetailSchema(ctx context.Context, name string) (relation.Schema, error)
	Load(ctx context.Context, name string, rel *relation.Relation) error
	// Tables lists the relations the backend serves (aggregated across the
	// subtree for relays).
	Tables(ctx context.Context) []engine.TableInfo
}

// collectBlocks adapts EvalOperatorBlocks to a single relation.
func collectBlocks(ctx context.Context, b Backend, req engine.OperatorRequest) (*relation.Relation, error) {
	var h *relation.Relation
	err := b.EvalOperatorBlocks(ctx, req, func(block *relation.Relation) error {
		if h == nil {
			h = block
			return nil
		}
		return h.Union(block)
	})
	if err != nil {
		return nil, err
	}
	return h, nil
}

// dispatch executes a request against a backend, measuring compute time and
// collecting the site-side breakdown into the response's Profile.
func dispatch(ctx context.Context, site Backend, req *Request) *Response {
	obs.ServerRequests.With(kindName(req.Kind)).Inc()
	rec := obs.NewSiteRecorder()
	ctx = obs.WithRecorder(ctx, rec)
	start := time.Now()
	resp := &Response{SiteID: site.ID()}
	var err error
	switch req.Kind {
	case KindHello:
		// Identity only.
	case KindBase:
		if req.Base == nil {
			err = fmt.Errorf("transport: base request without query")
		} else {
			resp.Rel, err = site.EvalBase(ctx, *req.Base)
		}
	case KindOperator:
		if req.Operator == nil {
			err = fmt.Errorf("transport: operator request without payload")
		} else {
			resp.Rel, err = collectBlocks(ctx, site, *req.Operator)
		}
	case KindLocal:
		if req.Local == nil {
			err = fmt.Errorf("transport: local request without payload")
		} else {
			resp.Rel, err = site.EvalLocal(ctx, *req.Local)
		}
	case KindSchema:
		resp.Schema, err = site.DetailSchema(ctx, req.Schema)
	case KindLoad:
		err = site.Load(ctx, req.LoadName, req.LoadRel)
	case KindTables:
		resp.Tables = site.Tables(ctx)
	default:
		err = fmt.Errorf("transport: unknown request kind %d", req.Kind)
	}
	resp.ComputeNS = time.Since(start).Nanoseconds()
	rec.SetEval(time.Since(start))
	b := rec.Snapshot()
	resp.Profile = &b
	if err != nil {
		resp.Err = err.Error()
		resp.Rel = nil
	}
	return resp
}

// reqRows counts the base-structure rows a request ships to the site.
func reqRows(req *Request) int {
	if req.Kind == KindOperator && req.Operator != nil && req.Operator.Base != nil {
		return req.Operator.Base.Len()
	}
	return 0
}

// respRows counts the rows a response ships back.
func respRows(resp *Response) int {
	if resp.Rel != nil {
		return resp.Rel.Len()
	}
	return 0
}

// callFromSizes assembles a call record from measured message sizes,
// carrying over the site-side breakdown from the response. The data plane is
// the codec frames of the request's metered relations and of the response's
// relation; the rest of each message is control plane.
func callFromSizes(site int, req *Request, resp *Response, down, up int) stats.Call {
	return stats.Call{
		Site:      site,
		BytesDown: down,
		BytesUp:   up,
		DataDown:  reqData(req),
		DataUp:    resp.Rel.FrameBytes(),
		RowsDown:  reqRows(req),
		RowsUp:    respRows(resp),
		Compute:   time.Duration(resp.ComputeNS),
		Breakdown: resp.Profile,
	}
}

// stampRequest prepares a request for the wire: it copies the context's
// trace fields (query ID, round, attempt) into the request and swaps its
// relations for relation.Metered copies, so that once the request is
// encoded reqData reports their codec frame bytes. It returns the attempt
// for the client's own call record.
func stampRequest(ctx context.Context, req *Request) int {
	req.QueryID = obs.QueryIDFrom(ctx)
	req.Round = obs.RoundFrom(ctx)
	req.Attempt = obs.AttemptFrom(ctx)
	req.LoadRel = relation.Metered(req.LoadRel)
	if req.Operator != nil {
		op := *req.Operator
		op.Base = relation.Metered(op.Base)
		req.Operator = &op
	}
	if req.Batch != nil {
		req.Batch = append([]engine.OperatorRequest(nil), req.Batch...)
		for m := range req.Batch {
			req.Batch[m].Base = relation.Metered(req.Batch[m].Base)
		}
	}
	return req.Attempt
}

// reqData returns the data-plane bytes of an encoded, stamped request.
func reqData(req *Request) int {
	n := req.LoadRel.FrameBytes()
	if req.Operator != nil {
		n += req.Operator.Base.FrameBytes()
	}
	for m := range req.Batch {
		n += req.Batch[m].Base.FrameBytes()
	}
	return n
}

// kindName names a request kind for metric labels and logs.
func kindName(k ReqKind) string {
	switch k {
	case KindHello:
		return "hello"
	case KindBase:
		return "base"
	case KindOperator:
		return "operator"
	case KindLocal:
		return "local"
	case KindSchema:
		return "schema"
	case KindLoad:
		return "load"
	case KindTables:
		return "tables"
	case KindBatch:
		return "batch"
	}
	return "unknown"
}

// recordCall folds one completed coordinator↔site exchange into the obs
// registry: wire bytes, data-plane bytes and rows in both directions
// (labeled site + query) and the site compute histogram. Runs once per call,
// never per row.
func recordCall(call stats.Call, kind ReqKind, queryID string) {
	site := strconv.Itoa(call.Site)
	q := obs.QueryLabel(queryID)
	obs.TransportCalls.With(site, kindName(kind)).Inc()
	obs.TransportBytes.With(site, "down", q).Add(int64(call.BytesDown))
	obs.TransportBytes.With(site, "up", q).Add(int64(call.BytesUp))
	obs.TransportDataBytes.With(site, "down", q).Add(int64(call.DataDown))
	obs.TransportDataBytes.With(site, "up", q).Add(int64(call.DataUp))
	obs.TransportRows.With(site, "down", q).Add(int64(call.RowsDown))
	obs.TransportRows.With(site, "up", q).Add(int64(call.RowsUp))
	obs.SiteCompute.With(site).ObserveDuration(call.Compute)
}
