package core

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skalla/internal/engine"
	"skalla/internal/gmdj"
	"skalla/internal/obs"
	"skalla/internal/plan"
	"skalla/internal/relation"
	"skalla/internal/stats"
	"skalla/internal/transport"
)

// countingBatchSite wraps a FastLocalSite (a concrete type, so the batch
// capability is promoted and the wrapper still satisfies transport.BatchSite)
// and counts which evaluation path each operator call took.
type countingBatchSite struct {
	*transport.FastLocalSite
	streams atomic.Int64
	batches atomic.Int64
}

func (c *countingBatchSite) EvalOperatorStream(ctx context.Context, req engine.OperatorRequest, sink func(*relation.Relation) error) (stats.Call, error) {
	c.streams.Add(1)
	return c.FastLocalSite.EvalOperatorStream(ctx, req, sink)
}

func (c *countingBatchSite) EvalOperatorBatchStream(ctx context.Context, reqs []engine.OperatorRequest, queryIDs []string, sink func(int, *relation.Relation) error) ([]stats.Call, error) {
	c.batches.Add(1)
	return c.FastLocalSite.EvalOperatorBatchStream(ctx, reqs, queryIDs, sink)
}

// TestBatchWindowCollapsesScans: two concurrent executions of the same query
// (single-flight OFF, so both genuinely run their rounds) under a batching
// window must serve every operator round through the batched site path — one
// shared detail scan per (site, round) instead of one per query — and still
// produce results identical to the serial evaluation.
func TestBatchWindowCollapsesScans(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	global := randomGlobal(rng, 200, 12)
	sites, cat := buildCluster(t, global, "T", 3, 5, true)

	plain, err := New(sites, cat, stats.NetModel{})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := plain.ExecuteWith(context.Background(), chainQuery(), plan.SelectNone())
	if err != nil {
		t.Fatal(err)
	}
	want := sortedText(serial.Rel)

	counting := make([]*countingBatchSite, len(sites))
	wrapped := make([]transport.Site, len(sites))
	for i := range sites {
		counting[i] = &countingBatchSite{FastLocalSite: sites[i].(*transport.FastLocalSite)}
		wrapped[i] = counting[i]
	}
	coord, err := New(wrapped, cat, stats.NetModel{})
	if err != nil {
		t.Fatal(err)
	}
	coord.SetBatchWindow(500 * time.Millisecond)

	flushes0 := obs.CoordBatchFlushes.Value()
	members0 := obs.CoordBatchMembers.Value()
	const queries = 2
	results := make([]*Result, queries)
	errs := make([]error, queries)
	var wg sync.WaitGroup
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = coord.ExecuteWith(context.Background(), chainQuery(), plan.SelectNone())
		}(i)
	}
	wg.Wait()
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("execution %d: %v", i, errs[i])
		}
		if got := sortedText(results[i].Rel); got != want {
			t.Fatalf("execution %d diverges from serial run\ngot:\n%.2000s\nwant:\n%.2000s", i, got, want)
		}
	}
	var streams, batches int64
	for _, c := range counting {
		streams += c.streams.Load()
		batches += c.batches.Load()
	}
	// Every operator call of both queries landed inside the window, so every
	// exchange went through the batch path with both members aboard.
	if streams != 0 {
		t.Errorf("%d operator calls bypassed the batch (window missed?)", streams)
	}
	if batches == 0 {
		t.Error("no batched exchanges issued")
	}
	if got := obs.CoordBatchFlushes.Value() - flushes0; got != batches {
		t.Errorf("flush metric = %d, want %d", got, batches)
	}
	if got := obs.CoordBatchMembers.Value() - members0; got != queries*batches {
		t.Errorf("member metric = %d, want %d (%d members per flush)", got, queries*batches, queries)
	}
}

// fakeBatchTarget is a minimal transport.Site for driving the batcher
// directly: operator streams emit one canned single-row block; the batch
// entry point does the same per member. Unused entry points panic.
type fakeBatchTarget struct {
	soloStreams  atomic.Int64
	batchCalls   atomic.Int64
	batchMembers atomic.Int64
}

func fakeBlock() *relation.Relation {
	r := relation.New(tSchema)
	r.MustAppend(relation.Tuple{relation.NewInt(1), relation.NewInt(2), relation.NewInt(3)})
	return r
}

func (f *fakeBatchTarget) ID() int { return 0 }
func (f *fakeBatchTarget) EvalBase(context.Context, gmdj.BaseQuery) (*relation.Relation, stats.Call, error) {
	panic("unused")
}
func (f *fakeBatchTarget) EvalOperator(context.Context, engine.OperatorRequest) (*relation.Relation, stats.Call, error) {
	panic("unused")
}
func (f *fakeBatchTarget) EvalOperatorStream(ctx context.Context, req engine.OperatorRequest, sink func(*relation.Relation) error) (stats.Call, error) {
	f.soloStreams.Add(1)
	if err := sink(fakeBlock()); err != nil {
		return stats.Call{}, err
	}
	return stats.Call{Site: 0, RowsUp: 1}, nil
}
func (f *fakeBatchTarget) EvalLocal(context.Context, engine.LocalRequest) (*relation.Relation, stats.Call, error) {
	panic("unused")
}
func (f *fakeBatchTarget) DetailSchema(context.Context, string) (relation.Schema, error) {
	panic("unused")
}
func (f *fakeBatchTarget) Tables(context.Context) ([]engine.TableInfo, error) { panic("unused") }

func (f *fakeBatchTarget) EvalOperatorBatchStream(ctx context.Context, reqs []engine.OperatorRequest, queryIDs []string, sink func(int, *relation.Relation) error) ([]stats.Call, error) {
	f.batchCalls.Add(1)
	f.batchMembers.Add(int64(len(reqs)))
	calls := make([]stats.Call, len(reqs))
	for m := range reqs {
		if err := sink(m, fakeBlock()); err != nil {
			return nil, err
		}
		calls[m] = stats.Call{Site: 0, RowsUp: 1}
	}
	return calls, nil
}

func batchTestRequest() engine.OperatorRequest {
	base := relation.New(tSchema)
	base.MustAppend(relation.Tuple{relation.NewInt(1), relation.NewInt(1), relation.NewInt(1)})
	return engine.OperatorRequest{Base: base, Op: chainQuery().Ops[0]}
}

// memberCount reports how many members a pending (unflushed) group for key
// currently holds.
func (b *siteBatcher) memberCount(key batchKey) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	g, ok := b.groups[key]
	if !ok {
		return 0
	}
	return len(g.members)
}

// TestBatcherWithdrawBeforeFlush: a member whose context dies during the
// collection window is withdrawn — its caller returns the cancellation, the
// survivor still gets its result, and the site sees a single-member exchange
// (the lone survivor takes the plain stream path, no batch framing).
func TestBatcherWithdrawBeforeFlush(t *testing.T) {
	site := &fakeBatchTarget{}
	b := &siteBatcher{window: 250 * time.Millisecond, groups: make(map[batchKey]*batchGroup)}
	key := batchKey{site: 0, detail: chainQuery().Ops[0].Detail}

	type outcome struct {
		call stats.Call
		err  error
	}
	survivor := make(chan outcome, 1)
	go func() {
		call, err := b.eval(context.Background(), site, batchTestRequest(), func(*relation.Relation) error { return nil })
		survivor <- outcome{call, err}
	}()
	waitFor(t, "first member to register", func() bool { return b.memberCount(key) == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	withdrawn := make(chan outcome, 1)
	go func() {
		call, err := b.eval(ctx, site, batchTestRequest(), func(*relation.Relation) error { return nil })
		withdrawn <- outcome{call, err}
	}()
	waitFor(t, "second member to register", func() bool { return b.memberCount(key) == 2 })
	cancel()
	got := <-withdrawn
	if !errors.Is(got.err, context.Canceled) {
		t.Fatalf("withdrawn member returned %v, want context.Canceled", got.err)
	}

	if got := <-survivor; got.err != nil {
		t.Fatalf("surviving member failed: %v", got.err)
	}
	if n := site.soloStreams.Load(); n != 1 {
		t.Errorf("solo streams = %d, want 1 (lone survivor skips batch framing)", n)
	}
	if n := site.batchCalls.Load(); n != 0 {
		t.Errorf("batch calls = %d, want 0", n)
	}
}

// TestBatcherAbandonedGroupNeverReachesSite: when every member withdraws
// before the flush, the exchange is cancelled outright.
func TestBatcherAbandonedGroupNeverReachesSite(t *testing.T) {
	site := &fakeBatchTarget{}
	b := &siteBatcher{window: 10 * time.Second, groups: make(map[batchKey]*batchGroup)}
	key := batchKey{site: 0, detail: chainQuery().Ops[0].Detail}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := b.eval(ctx, site, batchTestRequest(), func(*relation.Relation) error { return nil })
		done <- err
	}()
	waitFor(t, "member to register", func() bool { return b.memberCount(key) == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned member returned %v, want context.Canceled", err)
	}
	// The flusher wakes on the dead group context and exits without touching
	// the site (the 10 s window would otherwise still be pending).
	waitFor(t, "group teardown", func() bool { return b.memberCount(key) == 0 })
	if n := site.soloStreams.Load() + site.batchCalls.Load(); n != 0 {
		t.Errorf("abandoned group reached the site: %d calls", n)
	}
}

// TestBatcherSinkErrorIsolation: one member's sink failure (its staging was
// poisoned, say) must surface on that member alone; the other member of the
// same batched exchange completes normally.
func TestBatcherSinkErrorIsolation(t *testing.T) {
	site := &fakeBatchTarget{}
	b := &siteBatcher{window: 200 * time.Millisecond, groups: make(map[batchKey]*batchGroup)}
	key := batchKey{site: 0, detail: chainQuery().Ops[0].Detail}

	sinkFail := errors.New("staging poisoned")
	failing := make(chan error, 1)
	go func() {
		_, err := b.eval(context.Background(), site, batchTestRequest(), func(*relation.Relation) error { return sinkFail })
		failing <- err
	}()
	waitFor(t, "first member to register", func() bool { return b.memberCount(key) == 1 })
	var survivorBlocks atomic.Int64
	ok := make(chan error, 1)
	go func() {
		_, err := b.eval(context.Background(), site, batchTestRequest(), func(*relation.Relation) error {
			survivorBlocks.Add(1)
			return nil
		})
		ok <- err
	}()

	if err := <-failing; !errors.Is(err, sinkFail) {
		t.Fatalf("failing member returned %v, want its sink error", err)
	}
	if err := <-ok; err != nil {
		t.Fatalf("healthy member failed alongside its neighbor: %v", err)
	}
	if survivorBlocks.Load() == 0 {
		t.Error("healthy member received no blocks")
	}
	if n := site.batchCalls.Load(); n != 1 {
		t.Errorf("batch calls = %d, want 1 (both members in one exchange)", n)
	}
}

// TestBatcherRetriesBypassBatch: a retried attempt must go straight to the
// site — re-batching a known-bad exchange would couple every member to the
// failure again.
func TestBatcherRetriesBypassBatch(t *testing.T) {
	site := &fakeBatchTarget{}
	coord, err := New([]transport.Site{site}, nil, stats.NetModel{})
	if err != nil {
		t.Fatal(err)
	}
	coord.SetBatchWindow(10 * time.Second) // would park first attempts for ages
	ctx := obs.WithAttempt(context.Background(), 2)
	if _, err := coord.siteOperatorStream(ctx, site, batchTestRequest(), func(*relation.Relation) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if n := site.soloStreams.Load(); n != 1 {
		t.Errorf("solo streams = %d, want 1 (retry must bypass the window)", n)
	}
	if n := site.batchCalls.Load(); n != 0 {
		t.Errorf("batch calls = %d, want 0", n)
	}

	// And with batching disabled entirely, the seam is a pass-through.
	coord.SetBatchWindow(0)
	if _, err := coord.siteOperatorStream(context.Background(), site, batchTestRequest(), func(*relation.Relation) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if n := site.soloStreams.Load(); n != 2 {
		t.Errorf("solo streams = %d, want 2", n)
	}
}
