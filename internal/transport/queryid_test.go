package transport

import (
	"bytes"
	"context"
	"encoding/gob"
	"sync"
	"testing"

	"skalla/internal/engine"
	"skalla/internal/gmdj"
	"skalla/internal/obs"
	"skalla/internal/relation"
)

// oldRequest is the pre-QueryID wire envelope, as an old peer would encode and
// decode it. gob matches struct fields by name, so the type name differing
// from Request does not matter on the wire.
type oldRequest struct {
	Kind     ReqKind
	Base     *gmdj.BaseQuery
	Operator *engine.OperatorRequest
	Local    *engine.LocalRequest
	Schema   string
	LoadName string
	LoadRel  *relation.Relation
}

// TestQueryIDOldPeerCompat proves the QueryID field keeps the protocol
// compatible with peers built before it existed, in both directions.
func TestQueryIDOldPeerCompat(t *testing.T) {
	// New coordinator → old site: the unknown field is skipped.
	var buf bytes.Buffer
	newReq := Request{Kind: KindSchema, QueryID: "abc123", Schema: "Flow"}
	if err := gob.NewEncoder(&buf).Encode(&newReq); err != nil {
		t.Fatal(err)
	}
	var old oldRequest
	if err := gob.NewDecoder(&buf).Decode(&old); err != nil {
		t.Fatalf("old peer cannot decode new request: %v", err)
	}
	if old.Kind != KindSchema || old.Schema != "Flow" {
		t.Errorf("old peer decoded %+v", old)
	}

	// Old coordinator → new site: the missing field stays zero.
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(&oldRequest{Kind: KindTables}); err != nil {
		t.Fatal(err)
	}
	var cur Request
	if err := gob.NewDecoder(&buf).Decode(&cur); err != nil {
		t.Fatalf("new peer cannot decode old request: %v", err)
	}
	if cur.Kind != KindTables || cur.QueryID != "" {
		t.Errorf("new peer decoded %+v", cur)
	}
}

// TestQueryIDPropagatesOverTCP runs a real exchange and checks the
// context-carried query ID lands in the transport metrics on both ends.
func TestQueryIDPropagatesOverTCP(t *testing.T) {
	srv, err := Serve(testSite(t, 3), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	qid := obs.NewQueryID()
	ctx := obs.WithQueryID(context.Background(), qid)
	rel, call, err := cli.EvalBase(ctx, gmdj.BaseQuery{Detail: "T", Cols: []string{"g"}})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 3 {
		t.Errorf("base result %d rows, want 3", rel.Len())
	}
	if call.BytesUp == 0 || call.BytesDown == 0 {
		t.Errorf("call accounting empty: %+v", call)
	}
	// Client-side metrics carry the query label.
	if got := obs.TransportBytes.With("3", "up", qid).Value(); got == 0 {
		t.Error("transport up-bytes not recorded under the query ID")
	}
	if got := obs.TransportBytes.With("3", "down", qid).Value(); got == 0 {
		t.Error("transport down-bytes not recorded under the query ID")
	}
	if got := obs.TransportCalls.With("3", "base").Value(); got == 0 {
		t.Error("transport call not counted")
	}
}

// TestQueryIDPropagatesThroughLocalSite exercises the serializing in-process
// transport the benchmarks use.
func TestQueryIDPropagatesThroughLocalSite(t *testing.T) {
	l := NewLocalSite(testSite(t, 3))
	qid := obs.NewQueryID()
	ctx := obs.WithQueryID(context.Background(), qid)
	base, _, err := l.EvalBase(ctx, gmdj.BaseQuery{Detail: "T", Cols: []string{"g"}})
	if err != nil {
		t.Fatal(err)
	}
	if base.Len() != 3 {
		t.Fatalf("base result %d rows", base.Len())
	}
	if got := obs.TransportBytes.With("3", "up", qid).Value(); got == 0 {
		t.Error("local transport bytes not recorded under the query ID")
	}
}

// TestUntaggedContextUsesNoneLabel: calls outside a query span land on the
// "none" query label rather than minting unbounded series.
func TestUntaggedContextUsesNoneLabel(t *testing.T) {
	l := NewLocalSite(testSite(t, 3))
	before := obs.TransportBytes.With("3", "up", "none").Value()
	if _, _, err := l.EvalBase(context.Background(), gmdj.BaseQuery{Detail: "T", Cols: []string{"g"}}); err != nil {
		t.Fatal(err)
	}
	if got := obs.TransportBytes.With("3", "up", "none").Value(); got <= before {
		t.Error("untagged call not recorded under the none label")
	}
}

// idBackend records the query ID each serving context carries.
type idBackend struct {
	Backend
	mu  sync.Mutex
	ids []string
}

func (b *idBackend) seen(ctx context.Context) {
	b.mu.Lock()
	b.ids = append(b.ids, obs.QueryIDFrom(ctx))
	b.mu.Unlock()
}

func (b *idBackend) EvalBase(ctx context.Context, bq gmdj.BaseQuery) (*relation.Relation, error) {
	b.seen(ctx)
	return b.Backend.EvalBase(ctx, bq)
}

func (b *idBackend) EvalOperatorBlocks(ctx context.Context, req engine.OperatorRequest, emit func(*relation.Relation) error) error {
	b.seen(ctx)
	return b.Backend.EvalOperatorBlocks(ctx, req, emit)
}

// TestTCPServerTagsQueryID: the TCP site server hands its backend a serving
// context carrying the coordinator's query ID, on the dispatch path (base)
// and on the stream path (operator) alike.
func TestTCPServerTagsQueryID(t *testing.T) {
	backend := &idBackend{Backend: testSite(t, 3)}
	srv, err := Serve(backend, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	qid := obs.NewQueryID()
	ctx := obs.WithQueryID(context.Background(), qid)
	if _, _, err := cli.EvalBase(ctx, gmdj.BaseQuery{Detail: "T", Cols: []string{"g"}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cli.EvalOperator(ctx, opRequest()); err != nil {
		t.Fatal(err)
	}
	backend.mu.Lock()
	defer backend.mu.Unlock()
	if len(backend.ids) != 2 || backend.ids[0] != qid || backend.ids[1] != qid {
		t.Errorf("backend saw query IDs %q, want [%q %q]", backend.ids, qid, qid)
	}
}
