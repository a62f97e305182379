package transport

import (
	"context"
	"strings"
	"testing"

	"skalla/internal/agg"
	"skalla/internal/engine"
	"skalla/internal/expr"
	"skalla/internal/gmdj"
	"skalla/internal/relation"
	"skalla/internal/stats"
)

// batchReqs builds two dissimilar members over the shared "T" detail: the
// standard count/sum request in 1-row blocks, and a min/max over a smaller
// base with a value filter.
func batchReqs() []engine.OperatorRequest {
	first := opRequest()
	first.BlockRows = 1
	base := relation.New(relation.MustSchema(relation.Column{Name: "g", Kind: relation.KindInt}))
	base.MustAppend(relation.Tuple{relation.NewInt(0)})
	base.MustAppend(relation.Tuple{relation.NewInt(1)})
	second := engine.OperatorRequest{
		Base: base,
		Op: gmdj.Operator{Detail: "T", Vars: []gmdj.GroupVar{{
			Aggs: []agg.Spec{{Func: agg.Min, Arg: "v", As: "lo"}, {Func: agg.Max, Arg: "v", As: "hi"}},
			Cond: expr.MustParse("B.g = R.g && R.v >= 4"),
		}}},
		Keys: []string{"g"},
	}
	return []engine.OperatorRequest{first, second}
}

// runBatch merges each member's blocks into one relation.
func runBatch(t *testing.T, site Site, reqs []engine.OperatorRequest) ([]*relation.Relation, []int, []stats.Call) {
	t.Helper()
	merged := make([]*relation.Relation, len(reqs))
	blocks := make([]int, len(reqs))
	calls, err := EvalBatch(context.Background(), site, reqs, []string{"q0", "q1"}, func(m int, b *relation.Relation) error {
		blocks[m]++
		if merged[m] == nil {
			merged[m] = b
			return nil
		}
		return merged[m].Union(b)
	})
	if err != nil {
		t.Fatal(err)
	}
	return merged, blocks, calls
}

// TestEvalBatchMatchesSolo: over every transport flavour, a batched exchange
// must deliver each member exactly what a solo stream would, with one call
// record per member whose row counts match, whose data-plane bytes are its
// own, and whose control-plane bytes split evenly.
func TestEvalBatchMatchesSolo(t *testing.T) {
	for name, site := range streamSites(t) {
		t.Run(name, func(t *testing.T) {
			if _, ok := site.(BatchSite); !ok {
				t.Fatalf("%T must implement BatchSite", site)
			}
			reqs := batchReqs()
			solo := make([]*relation.Relation, len(reqs))
			for m, req := range reqs {
				h, _, err := collectStream(context.Background(), site, req)
				if err != nil {
					t.Fatal(err)
				}
				solo[m] = h
			}

			merged, blocks, calls := runBatch(t, site, reqs)
			if len(calls) != len(reqs) {
				t.Fatalf("%d call records for %d members", len(calls), len(reqs))
			}
			if blocks[0] < 2 {
				t.Errorf("member 0 asked for 1-row blocks, got %d block(s)", blocks[0])
			}
			for m := range reqs {
				if merged[m] == nil || !merged[m].EqualMultiset(solo[m]) {
					t.Errorf("member %d batched result differs from solo stream", m)
				}
				if calls[m].RowsDown != reqs[m].Base.Len() {
					t.Errorf("member %d RowsDown = %d, want %d", m, calls[m].RowsDown, reqs[m].Base.Len())
				}
				if calls[m].RowsUp != merged[m].Len() {
					t.Errorf("member %d RowsUp = %d, want %d", m, calls[m].RowsUp, merged[m].Len())
				}
				if calls[m].Site != site.ID() {
					t.Errorf("member %d Site = %d", m, calls[m].Site)
				}
				if calls[m].Breakdown == nil {
					t.Errorf("member %d missing site breakdown", m)
				}
				// Each member carries its exact data-plane bytes: its base
				// fragment's codec frame down, its own block frames up.
				wantDown := 0
				if name != "fast" {
					frame, err := relation.Marshal(reqs[m].Base)
					if err != nil {
						t.Fatal(err)
					}
					wantDown = len(frame)
					if calls[m].DataUp == 0 && calls[m].RowsUp > 0 {
						t.Errorf("member %d returned %d rows in zero data bytes", m, calls[m].RowsUp)
					}
				}
				if calls[m].DataDown != wantDown {
					t.Errorf("member %d DataDown = %d, want %d", m, calls[m].DataDown, wantDown)
				}
			}
			// Only the control-plane share divides evenly (remainder on early
			// members), so the per-member totals reconcile exactly with the
			// wire.
			ctrl := func(m int) (int, int) {
				return calls[m].BytesDown - calls[m].DataDown, calls[m].BytesUp - calls[m].DataUp
			}
			down0, up0 := ctrl(0)
			down1, up1 := ctrl(1)
			if d := down0 - down1; d < 0 || d > 1 {
				t.Errorf("control BytesDown split %d/%d not even", down0, down1)
			}
			if d := up0 - up1; d < 0 || d > 1 {
				t.Errorf("control BytesUp split %d/%d not even", up0, up1)
			}
			if name == "fast" {
				if calls[0].BytesUp != 0 || calls[0].BytesDown != 0 {
					t.Errorf("fast path counts bytes: %+v", calls[0])
				}
			} else if calls[0].BytesUp == 0 || calls[0].BytesDown == 0 {
				t.Errorf("%s batch shipped zero bytes: %+v", name, calls[0])
			}
		})
	}
}

// plainSite hides a Site's batch capability behind an interface embedding, the
// way fault-injection and gating wrappers do.
type plainSite struct{ Site }

// TestEvalBatchFallback: a non-BatchSite still serves the batch through
// sequential per-member streams with identical results.
func TestEvalBatchFallback(t *testing.T) {
	site := plainSite{NewFastLocalSite(testSite(t, 0))}
	if _, ok := Site(site).(BatchSite); ok {
		t.Fatal("interface embedding should hide the batch capability")
	}
	reqs := batchReqs()
	merged, _, calls := runBatch(t, site, reqs)
	for m, req := range reqs {
		solo, _, err := collectStream(context.Background(), site, req)
		if err != nil {
			t.Fatal(err)
		}
		if !merged[m].EqualMultiset(solo) {
			t.Errorf("member %d fallback result differs from solo stream", m)
		}
		if calls[m].RowsDown != req.Base.Len() {
			t.Errorf("member %d RowsDown = %d", m, calls[m].RowsDown)
		}
	}
}

// TestEvalBatchMemberLimit: the one-byte member tag caps a batch at 255
// members; oversized batches must be rejected before touching the engine.
func TestEvalBatchMemberLimit(t *testing.T) {
	site := NewLocalSite(testSite(t, 0))
	reqs := make([]engine.OperatorRequest, maxBatchMembers+1)
	for i := range reqs {
		reqs[i] = opRequest()
	}
	qids := make([]string, len(reqs))
	_, err := site.EvalOperatorBatchStream(context.Background(), reqs, qids, func(int, *relation.Relation) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "wire limit") {
		t.Fatalf("oversized batch error = %v", err)
	}
}
