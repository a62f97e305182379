package obs

import (
	"context"
	"sync"
	"time"
)

// The profile model is the per-query ledger of one distributed evaluation:
// the coordinator's rounds and site calls, each call carrying the site-side
// breakdown that ships back inside its wire response. The query span appends
// to it while the query runs; once the query ends it is the complete record
// /debug/queries serves and every per-query view is derived from.

// SiteBreakdown is the site-side cost breakdown of one request, accumulated
// by a SiteRecorder while the site evaluates and returned in the wire
// response's trailing Profile field. All fields are totals for the one
// request, not process-lifetime counters.
type SiteBreakdown struct {
	// EvalNS is the site-side evaluation wall time in nanoseconds (the same
	// quantity as the response's ComputeNS, duplicated here so a breakdown is
	// self-contained).
	EvalNS int64
	// Workers is the effective parallel scan width (1 = sequential).
	Workers int
	// RowsScanned counts detail-relation rows scanned by GMDJ evaluation.
	RowsScanned int64
	// WorkerRows is RowsScanned split by worker index; skewed shard
	// assignments show up as an unbalanced slice.
	WorkerRows []int64
	// SegCacheReads / SegDiskReads count store segment loads by source.
	SegCacheReads int64
	SegDiskReads  int64
	// SegRowsLoaded counts rows decoded from disk segments.
	SegRowsLoaded int64
	// CodecBytes counts bytes produced by the site-side response encoder
	// (stream blocks for operator rounds, the relation payload otherwise).
	CodecBytes int64
	// Blocks counts H blocks emitted by operator evaluation.
	Blocks int64
}

// SiteRecorder accumulates one request's SiteBreakdown. It is carried in the
// request context on the site side; every method is safe on a nil receiver
// (recording is a no-op outside a profiled request) and safe for concurrent
// use by parallel evaluation workers.
type SiteRecorder struct {
	mu sync.Mutex
	b  SiteBreakdown
}

// NewSiteRecorder creates an empty recorder.
func NewSiteRecorder() *SiteRecorder { return &SiteRecorder{} }

// AddWorkerRows charges n scanned rows to a worker index.
func (r *SiteRecorder) AddWorkerRows(worker int, n int64) {
	if r == nil || n == 0 {
		return
	}
	r.mu.Lock()
	for len(r.b.WorkerRows) <= worker {
		r.b.WorkerRows = append(r.b.WorkerRows, 0)
	}
	r.b.WorkerRows[worker] += n
	r.b.RowsScanned += n
	r.mu.Unlock()
}

// SetWorkers records the effective scan width (kept at the maximum seen, so
// a sequential follow-up pass does not erase a parallel one).
func (r *SiteRecorder) SetWorkers(n int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if n > r.b.Workers {
		r.b.Workers = n
	}
	r.mu.Unlock()
}

// AddSegRead charges one segment load; disk loads also charge decoded rows.
func (r *SiteRecorder) AddSegRead(disk bool, rows int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if disk {
		r.b.SegDiskReads++
		r.b.SegRowsLoaded += rows
	} else {
		r.b.SegCacheReads++
	}
	r.mu.Unlock()
}

// AddCodecBytes charges response-encoder output bytes.
func (r *SiteRecorder) AddCodecBytes(n int64) {
	if r == nil || n == 0 {
		return
	}
	r.mu.Lock()
	r.b.CodecBytes += n
	r.mu.Unlock()
}

// AddBlocks charges emitted H blocks.
func (r *SiteRecorder) AddBlocks(n int64) {
	if r == nil || n == 0 {
		return
	}
	r.mu.Lock()
	r.b.Blocks += n
	r.mu.Unlock()
}

// SetEval records the site-side evaluation wall time.
func (r *SiteRecorder) SetEval(d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.b.EvalNS = d.Nanoseconds()
	r.mu.Unlock()
}

// Snapshot returns a copy of the accumulated breakdown (nil receiver yields
// the zero breakdown).
func (r *SiteRecorder) Snapshot() SiteBreakdown {
	if r == nil {
		return SiteBreakdown{}
	}
	r.mu.Lock()
	b := r.b
	b.WorkerRows = append([]int64(nil), r.b.WorkerRows...)
	r.mu.Unlock()
	return b
}

type recorderKey struct{}

// WithRecorder tags a context with a site recorder.
func WithRecorder(ctx context.Context, r *SiteRecorder) context.Context {
	return context.WithValue(ctx, recorderKey{}, r)
}

// RecorderFrom extracts the site recorder (nil when untagged — every
// SiteRecorder method accepts nil, so callers record unconditionally).
func RecorderFrom(ctx context.Context) *SiteRecorder {
	r, _ := ctx.Value(recorderKey{}).(*SiteRecorder)
	return r
}

type roundKey struct{}

// WithRound tags a context with the coordinator round name, so site calls
// issued under it can stamp the round into the wire request.
func WithRound(ctx context.Context, name string) context.Context {
	return context.WithValue(ctx, roundKey{}, name)
}

// RoundFrom extracts the round name ("" when untagged).
func RoundFrom(ctx context.Context) string {
	name, _ := ctx.Value(roundKey{}).(string)
	return name
}

type attemptKey struct{}

// WithAttempt tags a context with the 1-based retry attempt number.
func WithAttempt(ctx context.Context, attempt int) context.Context {
	return context.WithValue(ctx, attemptKey{}, attempt)
}

// AttemptFrom extracts the attempt number (1 when untagged: a call outside
// the retry loop is its own first attempt).
func AttemptFrom(ctx context.Context) int {
	if a, ok := ctx.Value(attemptKey{}).(int); ok && a > 0 {
		return a
	}
	return 1
}

// SiteCall is the one record of a coordinator↔site exchange: the
// coordinator-observed envelope (timing, bytes, rows) plus the site's own
// breakdown. The transport fills it, the query span appends it to its round
// exactly once, and every other view (stats.Metrics, traces, /debug/queries)
// reads it from there. Failed attempts appear as their own entries with
// Failed set; their traffic is excluded from round totals, so retries never
// double-count bytes.
type SiteCall struct {
	Site    int
	Attempt int // 1-based retry attempt (1 when untagged)
	Failed  bool
	Err     string `json:",omitempty"`
	// Start and Elapsed are the coordinator-observed wall-clock envelope of
	// the exchange, stamped by the transport.
	Start   time.Time
	Elapsed time.Duration
	// BytesDown and BytesUp count everything that crossed the wire in each
	// direction. DataDown and DataUp are their data-plane share: the
	// relation-codec frames (the partial aggregates and base-structure
	// fragments Thm. 2 and the Sect. 5.2 formula count). The rest is control
	// plane — gob envelopes, query IDs, round names, timings, site
	// breakdowns, stream markers — whose size varies with timing values, so
	// byte-determinism checks compare the data plane.
	BytesDown int
	BytesUp   int
	DataDown  int
	DataUp    int
	RowsDown  int // base-structure rows shipped to the site
	RowsUp    int // sub-aggregate rows returned
	Compute   time.Duration
	// Breakdown is the site-side cost breakdown returned in the response's
	// trailing Profile field (nil from peers that do not report one).
	Breakdown *SiteBreakdown `json:",omitempty"`
}

// RoundProfile is one synchronization round inside a profile. Byte/row
// totals cover successful calls only. EstBytesDown/Up carry the cost model's
// per-round prediction when the plan had one (zero otherwise).
type RoundProfile struct {
	Name         string
	Start        time.Time
	Elapsed      time.Duration
	XRows        int
	BytesDown    int
	BytesUp      int
	DataDown     int
	DataUp       int
	RowsDown     int
	RowsUp       int
	CoordTime    time.Duration
	EstBytesDown int64
	EstBytesUp   int64
	Calls        []SiteCall
}

// ProfilePlan is the planner identity attached to a profile: which compiled
// plan ran and what the cost model predicted for it.
type ProfilePlan struct {
	Fingerprint  string
	Mode         string
	Rules        []string
	EstRounds    int
	EstBytesDown int64
	EstBytesUp   int64
}

// QueryProfile is the complete record of one distributed query: the one
// per-query ledger, owned by the query span while the query runs.
type QueryProfile struct {
	QueryID string
	Start   time.Time
	Elapsed time.Duration
	// QueueTime is how long the query waited in the coordinator's admission
	// queue before execution started (zero when admission control is off or
	// a slot was free immediately). Not included in Elapsed, which covers the
	// execution span only.
	QueueTime time.Duration `json:",omitempty"`
	// Shared marks how the shared-work layer served this query: "leader" (ran
	// the distributed rounds on behalf of followers), "follower" (awaited a
	// concurrent leader's result), "cache" (super-aggregate result cache hit,
	// zero site rounds). Empty for an unshared execution.
	Shared string `json:",omitempty"`
	Err    string `json:",omitempty"`
	Plan   ProfilePlan
	Rounds []RoundProfile
}

// BytesDown returns the query's total coordinator→sites wire bytes
// (successful calls only).
func (p *QueryProfile) BytesDown() int {
	n := 0
	for i := range p.Rounds {
		n += p.Rounds[i].BytesDown
	}
	return n
}

// BytesUp returns the query's total sites→coordinator wire bytes.
func (p *QueryProfile) BytesUp() int {
	n := 0
	for i := range p.Rounds {
		n += p.Rounds[i].BytesUp
	}
	return n
}
