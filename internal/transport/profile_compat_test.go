package transport

import (
	"bytes"
	"context"
	"encoding/gob"
	"testing"

	"skalla/internal/engine"
	"skalla/internal/gmdj"
	"skalla/internal/obs"
	"skalla/internal/relation"
)

// oldResponse is the pre-profiler wire response envelope, as an old peer
// would encode and decode it (see oldRequest in queryid_test.go for the
// pattern: gob matches fields by name, so the type name is irrelevant).
type oldResponse struct {
	Err       string
	Rel       *relation.Relation
	Schema    relation.Schema
	Tables    []engine.TableInfo
	SiteID    int
	ComputeNS int64
	More      bool
}

// TestTraceFieldsOldPeerCompat proves the appended trace-context fields
// (Request.Round, Request.Attempt) keep the protocol compatible with peers
// built before the profiler, in both directions.
func TestTraceFieldsOldPeerCompat(t *testing.T) {
	// New coordinator → old site: the unknown fields are skipped.
	var buf bytes.Buffer
	newReq := Request{Kind: KindSchema, QueryID: "q1", Schema: "Flow", Round: "MD2", Attempt: 3}
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

	// Old coordinator → new site: the missing fields stay zero.
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(&oldRequest{Kind: KindTables}); err != nil {
		t.Fatal(err)
	}
	var cur Request
	if err := gob.NewDecoder(&buf).Decode(&cur); err != nil {
		t.Fatalf("new peer cannot decode old request: %v", err)
	}
	if cur.Kind != KindTables || cur.Round != "" || cur.Attempt != 0 {
		t.Errorf("new peer decoded %+v", cur)
	}
}

// TestProfileFieldOldPeerCompat proves the appended Response.Profile field is
// wire-compatible with pre-profiler peers in both directions.
func TestProfileFieldOldPeerCompat(t *testing.T) {
	// New site → old coordinator: the unknown breakdown is skipped.
	var buf bytes.Buffer
	b := obs.SiteBreakdown{EvalNS: 12345, RowsScanned: 42, CodecBytes: 7, Workers: 2, WorkerRows: []int64{20, 22}}
	newResp := Response{SiteID: 5, ComputeNS: 999, Profile: &b}
	if err := gob.NewEncoder(&buf).Encode(&newResp); err != nil {
		t.Fatal(err)
	}
	var old oldResponse
	if err := gob.NewDecoder(&buf).Decode(&old); err != nil {
		t.Fatalf("old peer cannot decode new response: %v", err)
	}
	if old.SiteID != 5 || old.ComputeNS != 999 {
		t.Errorf("old peer decoded %+v", old)
	}

	// Old site → new coordinator: the missing breakdown stays nil.
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(&oldResponse{SiteID: 5, ComputeNS: 999}); err != nil {
		t.Fatal(err)
	}
	var cur Response
	if err := gob.NewDecoder(&buf).Decode(&cur); err != nil {
		t.Fatalf("new peer cannot decode old response: %v", err)
	}
	if cur.SiteID != 5 || cur.ComputeNS != 999 || cur.Profile != nil {
		t.Errorf("new peer decoded %+v", cur)
	}
}

// TestSiteProfileOverTCP runs a real exchange and checks the site-side
// breakdown and trace context survive the wire: the call record carries the
// attempt from the context and a non-nil breakdown with the site's eval time.
func TestSiteProfileOverTCP(t *testing.T) {
	srv, err := Serve(testSite(t, 4), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	ctx := obs.WithQueryID(context.Background(), obs.NewQueryID())
	ctx = obs.WithRound(ctx, "base")
	ctx = obs.WithAttempt(ctx, 2)
	_, call, err := cli.EvalBase(ctx, gmdj.BaseQuery{Detail: "T", Cols: []string{"g"}})
	if err != nil {
		t.Fatal(err)
	}
	if call.Attempt != 2 {
		t.Errorf("call.Attempt = %d, want 2 (from context)", call.Attempt)
	}
	if call.Start.IsZero() || call.Elapsed <= 0 {
		t.Errorf("call envelope not stamped: start %v elapsed %v", call.Start, call.Elapsed)
	}
	if call.Breakdown == nil {
		t.Fatal("call.Breakdown nil: site breakdown did not cross the wire")
	}
	if call.Breakdown.EvalNS <= 0 {
		t.Errorf("site breakdown eval time %d, want > 0", call.Breakdown.EvalNS)
	}

	// The streaming operator path attaches the breakdown on the terminal frame.
	scall, err := cli.EvalOperatorStream(ctx, opRequest(), func(*relation.Relation) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if scall.Breakdown == nil {
		t.Fatal("stream call.Breakdown nil")
	}
	if scall.Breakdown.CodecBytes <= 0 {
		t.Errorf("stream breakdown codec bytes %d, want > 0", scall.Breakdown.CodecBytes)
	}
	if scall.Attempt != 2 {
		t.Errorf("stream call.Attempt = %d, want 2", scall.Attempt)
	}
}
