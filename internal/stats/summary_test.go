package stats

import (
	"testing"
	"time"
)

func TestSummaryEmpty(t *testing.T) {
	m := &Metrics{Net: NetModel{}}
	s := m.Summary()
	if s.SiteCompute.Max != 0 || s.SyncMerge.P95 != 0 || s.CallBytesDown.P50 != 0 {
		t.Errorf("empty metrics summary not zero: %+v", s)
	}
}

func TestSummaryPercentiles(t *testing.T) {
	m := &Metrics{Net: NetModel{}}
	// 100 calls with compute 1ms..100ms and bytes 10..1000 spread over two
	// rounds with coord times 5ms and 15ms.
	var calls1, calls2 []Call
	for i := 1; i <= 100; i++ {
		c := Call{
			Site:      i % 4,
			BytesDown: 10 * i,
			BytesUp:   7 * i,
			Compute:   time.Duration(i) * time.Millisecond,
		}
		if i <= 50 {
			calls1 = append(calls1, c)
		} else {
			calls2 = append(calls2, c)
		}
	}
	m.Rounds = append(m.Rounds, RoundStat{Name: "base", Calls: calls1, CoordTime: 5 * time.Millisecond})
	m.Rounds = append(m.Rounds, RoundStat{Name: "MD1", Calls: calls2, CoordTime: 15 * time.Millisecond})

	s := m.Summary()
	if s.SiteCompute.P50 != 50*time.Millisecond {
		t.Errorf("compute p50 = %v, want 50ms", s.SiteCompute.P50)
	}
	if s.SiteCompute.P95 != 95*time.Millisecond {
		t.Errorf("compute p95 = %v, want 95ms", s.SiteCompute.P95)
	}
	if s.SiteCompute.Max != 100*time.Millisecond {
		t.Errorf("compute max = %v, want 100ms", s.SiteCompute.Max)
	}
	// Two merge samples: nearest-rank p50 is the lower one, p95/max the upper.
	if s.SyncMerge.P50 != 5*time.Millisecond || s.SyncMerge.Max != 15*time.Millisecond {
		t.Errorf("merge summary = %+v", s.SyncMerge)
	}
	if s.CallBytesDown.P50 != 500 || s.CallBytesDown.Max != 1000 {
		t.Errorf("bytesDown summary = %+v", s.CallBytesDown)
	}
	if s.CallBytesUp.P95 != 7*95 || s.CallBytesUp.Max != 700 {
		t.Errorf("bytesUp summary = %+v", s.CallBytesUp)
	}
}

func TestSummarySingleSample(t *testing.T) {
	m := &Metrics{Net: NetModel{}}
	m.Rounds = append(m.Rounds, RoundStat{
		Name:      "base",
		Calls:     []Call{{Compute: 3 * time.Millisecond, BytesDown: 42, BytesUp: 24}},
		CoordTime: time.Millisecond,
	})
	s := m.Summary()
	if s.SiteCompute.P50 != 3*time.Millisecond || s.SiteCompute.P95 != 3*time.Millisecond || s.SiteCompute.Max != 3*time.Millisecond {
		t.Errorf("single-sample compute summary = %+v", s.SiteCompute)
	}
	if s.CallBytesDown.P50 != 42 || s.CallBytesUp.Max != 24 {
		t.Errorf("single-sample byte summaries = %+v %+v", s.CallBytesDown, s.CallBytesUp)
	}
}

func TestRank(t *testing.T) {
	// Nearest-rank: for n=100, p50 -> index 49 (the 50th value), p95 -> 94.
	cases := []struct {
		p    float64
		n    int
		want int
	}{
		{50, 100, 49}, {95, 100, 94}, {100, 100, 99},
		{50, 1, 0}, {95, 1, 0},
		{50, 2, 0}, {95, 2, 1},
		{50, 3, 1},
	}
	for _, c := range cases {
		if got := rank(c.p, c.n); got != c.want {
			t.Errorf("rank(%g, %d) = %d, want %d", c.p, c.n, got, c.want)
		}
	}
}
