package transport

import (
	"context"
	"fmt"

	"skalla/internal/engine"
	"skalla/internal/obs"
	"skalla/internal/relation"
	"skalla/internal/stats"
)

// Batched round framing: several concurrent queries whose current MD
// operators aggregate over the same detail relation ship as ONE wire exchange
// per site, and the site feeds every member from a single scan of its
// partition (engine.EvalOperatorBatch). Batching is a capability, not part of
// the base Site/Backend contracts: endpoints advertise it by implementing the
// interfaces below, and callers fall back to per-member streams against
// anything else (old peers, relays, fault-injection wrappers), so the batch
// path degrades instead of failing.

// maxBatchMembers bounds a batch so the member index fits the one-byte wire
// tag; the coordinator's batch window never accumulates anywhere near this.
const maxBatchMembers = 255

// BatchSite is the optional client-side capability: evaluate several operator
// requests in one exchange, delivering each member's H_i blocks to sink with
// the member index. queryIDs (optional, parallel to reqs) attributes each
// member to the query it serves in site logs and per-query metrics. On
// success it returns one stats.Call per member whose byte totals sum exactly
// to what crossed the wire, each with its own exact data-plane bytes.
type BatchSite interface {
	Site
	EvalOperatorBatchStream(ctx context.Context, reqs []engine.OperatorRequest, queryIDs []string, sink func(member int, block *relation.Relation) error) ([]stats.Call, error)
}

// BatchBackend is the optional serving-side capability; *engine.Site
// implements it via its fan-in evaluator.
type BatchBackend interface {
	Backend
	EvalOperatorBatch(ctx context.Context, reqs []engine.OperatorRequest, emit func(member int, block *relation.Relation) error) error
}

// EvalBatch evaluates a batch over any Site: a BatchSite gets the
// single-exchange fan-in path; anything else falls back to sequential
// per-member streams (each under its member's query ID), which preserves the
// semantics at the cost of one scan per member.
func EvalBatch(ctx context.Context, s Site, reqs []engine.OperatorRequest, queryIDs []string, sink func(member int, block *relation.Relation) error) ([]stats.Call, error) {
	if bs, ok := s.(BatchSite); ok {
		return bs.EvalOperatorBatchStream(ctx, reqs, queryIDs, sink)
	}
	calls := make([]stats.Call, len(reqs))
	for m := range reqs {
		mctx := ctx
		if m < len(queryIDs) && queryIDs[m] != "" {
			mctx = obs.WithQueryID(ctx, queryIDs[m])
		}
		m := m
		call, err := s.EvalOperatorStream(mctx, reqs[m], func(block *relation.Relation) error {
			return sink(m, block)
		})
		calls[m] = call
		if err != nil {
			return calls, err
		}
	}
	return calls, nil
}

// evalBatchBackend dispatches a batch on the serving side: a BatchBackend
// evaluates all members over one shared detail scan; anything else (relays,
// plain backends) evaluates members sequentially within the same exchange.
func evalBatchBackend(ctx context.Context, b Backend, reqs []engine.OperatorRequest, emit func(member int, block *relation.Relation) error) error {
	if len(reqs) == 0 {
		return fmt.Errorf("transport: batch request without members")
	}
	if len(reqs) > maxBatchMembers {
		return fmt.Errorf("transport: batch of %d members exceeds the %d-member wire limit", len(reqs), maxBatchMembers)
	}
	if bb, ok := b.(BatchBackend); ok {
		return bb.EvalOperatorBatch(ctx, reqs, emit)
	}
	for m := range reqs {
		m := m
		if err := b.EvalOperatorBlocks(ctx, reqs[m], func(block *relation.Relation) error {
			return emit(m, block)
		}); err != nil {
			return err
		}
	}
	return nil
}

// batchMembers starts one call record per member of a stamped, encoded
// batch request, holding the member's shipped base rows and their exact
// data-plane bytes; the stream adds RowsUp and DataUp per member.
func batchMembers(req *Request) []stats.Call {
	calls := make([]stats.Call, len(req.Batch))
	for m, r := range req.Batch {
		if r.Base != nil {
			calls[m].RowsDown = r.Base.Len()
		}
		calls[m].DataDown = r.Base.FrameBytes()
	}
	return calls
}

// splitBatch completes the per-member call records of one batched exchange
// ex (whose BytesDown/BytesUp are the wire totals). Each member keeps its
// exact data-plane bytes; the control-plane bytes (wire total minus every
// member's data) are divided evenly with the remainder on early members, so
// the per-member BytesDown/BytesUp sum exactly to the wire totals. Member 0
// carries the exchange's compute time and site breakdown (the scan ran once
// — attributing it once keeps histogram and profile sums equal to the
// unbatched accounting); the rest carry empty non-nil breakdowns.
func splitBatch(ex stats.Call, calls []stats.Call) []stats.Call {
	n := len(calls)
	ctrlDown, ctrlUp := ex.BytesDown, ex.BytesUp
	for _, c := range calls {
		ctrlDown -= c.DataDown
		ctrlUp -= c.DataUp
	}
	share := func(total, m int) int {
		if m < total%n {
			return total/n + 1
		}
		return total / n
	}
	for m := range calls {
		c := &calls[m]
		c.Site, c.Start, c.Elapsed, c.Attempt = ex.Site, ex.Start, ex.Elapsed, ex.Attempt
		c.BytesDown = c.DataDown + share(ctrlDown, m)
		c.BytesUp = c.DataUp + share(ctrlUp, m)
		c.Breakdown = &obs.SiteBreakdown{}
		if m == 0 {
			c.Compute = ex.Compute
			if ex.Breakdown != nil {
				c.Breakdown = ex.Breakdown
			}
		}
	}
	return calls
}

// recordBatchCalls folds per-member call records into the obs registry under
// each member's own query ID.
func recordBatchCalls(calls []stats.Call, queryIDs []string) {
	for m := range calls {
		qid := ""
		if m < len(queryIDs) {
			qid = queryIDs[m]
		}
		recordCall(calls[m], KindBatch, qid)
	}
}
