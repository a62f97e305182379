package obs

import (
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"
)

// The span model structures one distributed evaluation as the coordinator
// sees it: a query span containing one round span per synchronization round,
// each round collecting the site calls that fed it. The query span owns the
// query's QueryProfile and appends every call to it exactly once. Spans also
// record registry metrics (rounds, sync-merge durations, query counts), emit
// structured logs through the package logger, and write trace lines to an
// optional TraceWriter.

// QuerySpan is one distributed evaluation in progress.
type QuerySpan struct {
	trace *TraceWriter

	mu sync.Mutex // guards p: retries are recorded from per-site goroutines
	p  QueryProfile

	roundCounter *Counter
	mergeHist    *Histogram
}

// StartQuery opens a query span: the active-query gauge rises and a debug
// log line records the start. trace may be nil (no trace lines).
func StartQuery(id string, trace *TraceWriter) *QuerySpan {
	q := &QuerySpan{
		trace:        trace,
		p:            QueryProfile{QueryID: id, Start: time.Now()},
		roundCounter: CoordRounds.With(QueryLabel(id)),
		mergeHist:    CoordSyncMerge.With(QueryLabel(id)),
	}
	CoordActiveQueries.Add(1)
	Logger().Debug("query start", "query", id)
	return q
}

// StartRound opens a round span. xRows is the number of base-structure rows
// the coordinator holds entering the round.
func (q *QuerySpan) StartRound(name string, xRows int) *RoundSpan {
	q.mu.Lock()
	q.p.Rounds = append(q.p.Rounds, RoundProfile{Name: name, Start: time.Now(), XRows: xRows})
	r := &RoundSpan{q: q, i: len(q.p.Rounds) - 1, name: name}
	q.mu.Unlock()
	q.trace.write(Event{Kind: EventRoundStart, Round: name, XRows: xRows})
	return r
}

// End closes the query span — counters by status, the active gauge falls,
// the summary is logged (info on success, warn on error) — and hands over
// the finished profile. The span must not be used afterwards.
func (q *QuerySpan) End(err error) *QueryProfile {
	status := "ok"
	q.mu.Lock()
	q.p.Elapsed = time.Since(q.p.Start)
	if err != nil {
		status, q.p.Err = "error", err.Error()
	}
	p := &q.p
	q.mu.Unlock()
	CoordQueries.With(status).Inc()
	CoordActiveQueries.Add(-1)
	if err != nil {
		Logger().Warn("query end", "query", p.QueryID, "rounds", len(p.Rounds), "elapsed", p.Elapsed, "err", p.Err)
	} else {
		Logger().Info("query end", "query", p.QueryID, "rounds", len(p.Rounds), "elapsed", p.Elapsed)
	}
	return p
}

// RoundSpan is one synchronization round in progress: a handle on its entry
// in the query's profile.
type RoundSpan struct {
	q    *QuerySpan
	i    int
	name string
}

// Call appends one site exchange to the round. A successful call adds to the
// round totals and writes a trace line; a failed one (Failed set) is kept as
// a record only.
func (r *RoundSpan) Call(c SiteCall) {
	r.q.mu.Lock()
	rp := &r.q.p.Rounds[r.i]
	rp.Calls = append(rp.Calls, c)
	if !c.Failed {
		rp.BytesDown += c.BytesDown
		rp.BytesUp += c.BytesUp
		rp.DataDown += c.DataDown
		rp.DataUp += c.DataUp
		rp.RowsDown += c.RowsDown
		rp.RowsUp += c.RowsUp
	}
	r.q.mu.Unlock()
	if !c.Failed {
		r.q.trace.write(Event{Kind: EventSiteCall, Round: r.name, Call: c})
	}
}

// Fail records a failed site-call attempt: c carries whatever the transport
// measured before the attempt failed. When retry is set the coordinator is
// about to try again, so the retry counter increments, a warn line is logged
// and a trace line written (traces show each attempt, not just the outcome).
func (r *RoundSpan) Fail(site, attempt int, c SiteCall, err error, retry bool) {
	c.Site, c.Attempt, c.Failed, c.Err = site, attempt, true, err.Error()
	r.Call(c)
	if !retry {
		return
	}
	CoordRetries.With(strconv.Itoa(site)).Inc()
	Logger().Warn("site call retry", "query", r.q.p.QueryID, "round", r.name,
		"site", site, "attempt", attempt, "err", err)
	r.q.trace.write(Event{Kind: EventSiteRetry, Round: r.name, Call: c})
}

// ObserveMerge records one coordinator synchronization step (an H-block
// merge, a local-X merge, or the base union) into the sync-merge histogram.
func (r *RoundSpan) ObserveMerge(d time.Duration) { r.q.mergeHist.ObserveDuration(d) }

// End closes the round: its coordinator time and elapsed time land in the
// profile, the round counter increments, and the round totals are logged
// and traced.
func (r *RoundSpan) End(coordTime time.Duration) {
	r.q.roundCounter.Inc()
	r.q.mu.Lock()
	rp := &r.q.p.Rounds[r.i]
	rp.CoordTime, rp.Elapsed = coordTime, time.Since(rp.Start)
	e := Event{Kind: EventRoundEnd, Round: r.name, BytesDown: rp.BytesDown, BytesUp: rp.BytesUp, CoordTime: coordTime}
	sites, elapsed := len(rp.Calls), rp.Elapsed
	r.q.mu.Unlock()
	Logger().Debug("round end", "query", r.q.p.QueryID, "round", r.name,
		"sites", sites, "bytes_down", e.BytesDown, "bytes_up", e.BytesUp,
		"coord", coordTime, "elapsed", elapsed)
	r.q.trace.write(e)
}

// EventKind discriminates trace lines.
type EventKind uint8

const (
	// EventRoundStart opens a round.
	EventRoundStart EventKind = iota
	// EventSiteCall reports one completed site exchange within a round.
	EventSiteCall
	// EventRoundEnd closes a round with its totals.
	EventRoundEnd
	// EventSiteRetry reports one failed site-call attempt that the
	// coordinator is about to retry (the round continues).
	EventSiteRetry
)

// Event is one trace line's content. Fields are populated per kind: XRows
// for round starts, Call for site calls and retries, the totals for round
// ends.
type Event struct {
	Kind      EventKind
	Round     string
	XRows     int
	Call      SiteCall
	BytesDown int
	BytesUp   int
	CoordTime time.Duration
}

// RenderEvent formats one event as the canonical single-line trace text.
func RenderEvent(e Event) string {
	c := e.Call
	switch e.Kind {
	case EventRoundStart:
		return fmt.Sprintf("round %s: start (X holds %d rows)\n", e.Round, e.XRows)
	case EventSiteCall:
		return fmt.Sprintf("round %s: site %d  down %dB/%d rows  up %dB/%d rows  compute %s\n",
			e.Round, c.Site, c.BytesDown, c.RowsDown, c.BytesUp, c.RowsUp,
			c.Compute.Round(10*time.Microsecond))
	case EventRoundEnd:
		return fmt.Sprintf("round %s: done  %dB down, %dB up, coordinator %s\n",
			e.Round, e.BytesDown, e.BytesUp, e.CoordTime.Round(10*time.Microsecond))
	case EventSiteRetry:
		return fmt.Sprintf("round %s: site %d attempt %d failed (%s), retrying\n",
			e.Round, c.Site, c.Attempt, c.Err)
	}
	return ""
}

// TraceWriter writes span progress as RenderEvent lines, one Write per line
// under a mutex, so lines from concurrent queries never split mid-line. A
// nil *TraceWriter writes nothing.
type TraceWriter struct {
	mu sync.Mutex
	w  io.Writer
}

// NewTraceWriter wraps a writer.
func NewTraceWriter(w io.Writer) *TraceWriter { return &TraceWriter{w: w} }

func (t *TraceWriter) write(e Event) {
	if t == nil {
		return
	}
	line := RenderEvent(e)
	t.mu.Lock()
	defer t.mu.Unlock()
	io.WriteString(t.w, line)
}
