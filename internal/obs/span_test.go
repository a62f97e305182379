package obs

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSpanEventOrder: the span records rounds and calls into its profile in
// the order they happen, each call once, with failed attempts kept as
// records but out of the round totals.
func TestSpanEventOrder(t *testing.T) {
	span := StartQuery("qtest", nil)
	rs := span.StartRound("base", 0)
	rs.Fail(1, 1, SiteCall{BytesDown: 5}, errors.New("boom"), true)
	rs.Call(SiteCall{Site: 0, BytesUp: 10, DataUp: 8, RowsUp: 2})
	rs.Call(SiteCall{Site: 1, Attempt: 2, BytesUp: 20, DataUp: 16, RowsUp: 4})
	rs.ObserveMerge(time.Millisecond)
	rs.End(time.Millisecond)
	span.StartRound("MD1", 6).End(0)
	p := span.End(nil)

	if p.QueryID != "qtest" || p.Start.IsZero() || p.Elapsed <= 0 || p.Err != "" {
		t.Errorf("profile envelope: %+v", p)
	}
	if len(p.Rounds) != 2 || p.Rounds[0].Name != "base" || p.Rounds[1].Name != "MD1" || p.Rounds[1].XRows != 6 {
		t.Fatalf("rounds: %+v", p.Rounds)
	}
	base := p.Rounds[0]
	if len(base.Calls) != 3 || !base.Calls[0].Failed || base.Calls[0].Site != 1 || base.Calls[0].Err != "boom" {
		t.Fatalf("calls: %+v", base.Calls)
	}
	if base.BytesDown != 0 || base.BytesUp != 30 || base.DataUp != 24 || base.RowsUp != 6 {
		t.Errorf("round totals must cover successful calls only: %+v", base)
	}
	if base.CoordTime != time.Millisecond || base.Elapsed <= 0 {
		t.Errorf("round timing: coord %v elapsed %v", base.CoordTime, base.Elapsed)
	}
}

func TestSpanMetrics(t *testing.T) {
	id := NewQueryID()
	before := CoordActiveQueries.Value()
	span := StartQuery(id, nil)
	if CoordActiveQueries.Value() != before+1 {
		t.Error("active gauge did not rise")
	}
	rs := span.StartRound("MD1", 5)
	rs.ObserveMerge(2 * time.Millisecond)
	rs.End(2 * time.Millisecond)
	span.End(errors.New("boom"))
	if CoordActiveQueries.Value() != before {
		t.Error("active gauge did not fall")
	}
	if got := CoordRounds.With(id).Value(); got != 1 {
		t.Errorf("round counter = %d, want 1", got)
	}
	if got := CoordSyncMerge.With(id).Count(); got != 1 {
		t.Errorf("merge histogram count = %d, want 1", got)
	}
	if CoordQueries.With("error").Value() == 0 {
		t.Error("error status not counted")
	}
}

func TestTraceWriterFormat(t *testing.T) {
	var b strings.Builder
	span := StartQuery("qfmt", NewTraceWriter(&b))
	rs := span.StartRound("MD1", 7)
	rs.Fail(2, 1, SiteCall{}, errors.New("reset"), true)
	rs.Fail(2, 2, SiteCall{}, errors.New("final"), false)
	rs.Call(SiteCall{Site: 2, BytesDown: 100, RowsDown: 7, BytesUp: 50, RowsUp: 3, Compute: 120 * time.Microsecond})
	rs.End(time.Millisecond)
	span.End(nil)
	got := b.String()
	want := "round MD1: start (X holds 7 rows)\n" +
		"round MD1: site 2 attempt 1 failed (reset), retrying\n" +
		"round MD1: site 2  down 100B/7 rows  up 50B/3 rows  compute 120µs\n" +
		"round MD1: done  100B down, 50B up, coordinator 1ms\n"
	if got != want {
		t.Errorf("line output:\n%q\nwant:\n%q", got, want)
	}
}

// TestTraceWriterConcurrent verifies the lock granularity: lines from
// interleaved spans sharing one writer never split.
func TestTraceWriterConcurrent(t *testing.T) {
	var mu sync.Mutex
	var b strings.Builder
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return b.Write(p)
	})
	tw := NewTraceWriter(w)
	var wg sync.WaitGroup
	for q := 0; q < 4; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			span := StartQuery(NewQueryID(), tw)
			for i := 0; i < 50; i++ {
				rs := span.StartRound("R", i)
				rs.Call(SiteCall{Site: q, BytesDown: 1, BytesUp: 1})
				rs.End(0)
			}
			span.End(nil)
		}(q)
	}
	wg.Wait()
	for _, line := range strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n") {
		if !strings.HasPrefix(line, "round ") {
			t.Fatalf("split or corrupt line: %q", line)
		}
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestNewQueryID(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		id := NewQueryID()
		if len(id) != 12 {
			t.Fatalf("query ID %q has length %d, want 12", id, len(id))
		}
		if seen[id] {
			t.Fatalf("duplicate query ID %q", id)
		}
		seen[id] = true
	}
}

func TestQueryIDContext(t *testing.T) {
	ctx := t.Context()
	if QueryIDFrom(ctx) != "" {
		t.Error("untagged context has a query ID")
	}
	ctx = WithQueryID(ctx, "abc")
	if QueryIDFrom(ctx) != "abc" {
		t.Error("query ID not propagated through context")
	}
}

func TestQueryLabel(t *testing.T) {
	if QueryLabel("") != "none" {
		t.Error(`QueryLabel("") != "none"`)
	}
	if QueryLabel("x") != "x" {
		t.Error("QueryLabel mangled a real ID")
	}
}
