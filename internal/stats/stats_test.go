package stats

import (
	"strings"
	"testing"
	"time"

	"skalla/internal/obs"
)

func sampleMetrics() *Metrics {
	m := &Metrics{Net: NetModel{LatencyPerMsg: time.Millisecond, BytesPerSec: 1 << 20}}
	m.Rounds = append(m.Rounds, RoundStat{
		Name: "base",
		Calls: []Call{
			{Site: 0, BytesDown: 100, BytesUp: 1 << 20, RowsDown: 0, RowsUp: 50, Compute: 3 * time.Millisecond},
			{Site: 1, BytesDown: 100, BytesUp: 2 << 20, RowsDown: 0, RowsUp: 70, Compute: 5 * time.Millisecond},
		},
		CoordTime: 2 * time.Millisecond,
	})
	m.Rounds = append(m.Rounds, RoundStat{
		Name: "MD1",
		Calls: []Call{
			{Site: 0, BytesDown: 1 << 20, BytesUp: 512, RowsDown: 120, RowsUp: 40, Compute: 7 * time.Millisecond},
			{Site: 1, BytesDown: 1 << 20, BytesUp: 512, RowsDown: 120, RowsUp: 60, Compute: 4 * time.Millisecond},
		},
		CoordTime: 1 * time.Millisecond,
	})
	return m
}

func TestNetModelCost(t *testing.T) {
	m := NetModel{LatencyPerMsg: time.Millisecond, BytesPerSec: 1 << 20}
	if got := m.Cost(0); got != time.Millisecond {
		t.Errorf("Cost(0) = %v", got)
	}
	if got := m.Cost(1 << 20); got != time.Millisecond+time.Second {
		t.Errorf("Cost(1MiB) = %v", got)
	}
	var free NetModel
	if free.Cost(1<<30) != 0 {
		t.Error("zero model must be free")
	}
	lan := DefaultLAN()
	if lan.Cost(10<<20) <= lan.LatencyPerMsg {
		t.Error("DefaultLAN must charge for bandwidth")
	}
}

func TestTotals(t *testing.T) {
	m := sampleMetrics()
	if m.NumRounds() != 2 {
		t.Errorf("NumRounds = %d", m.NumRounds())
	}
	if got := m.TotalBytesDown(); got != 200+2<<20 {
		t.Errorf("TotalBytesDown = %d", got)
	}
	if got := m.TotalBytesUp(); got != 3<<20+1024 {
		t.Errorf("TotalBytesUp = %d", got)
	}
	if m.TotalBytes() != m.TotalBytesDown()+m.TotalBytesUp() {
		t.Error("TotalBytes inconsistent")
	}
	if got := m.TotalRows(); got != 50+70+240+100 {
		t.Errorf("TotalRows = %d", got)
	}
	if got := m.TotalMessages(); got != 4 {
		t.Errorf("TotalMessages = %d", got)
	}
}

func TestTimeComponents(t *testing.T) {
	m := sampleMetrics()
	if got := m.SiteTime(); got != 12*time.Millisecond { // max(3,5) + max(7,4)
		t.Errorf("SiteTime = %v", got)
	}
	if got := m.SiteTimeTotal(); got != 19*time.Millisecond {
		t.Errorf("SiteTimeTotal = %v", got)
	}
	if got := m.CoordTime(); got != 3*time.Millisecond {
		t.Errorf("CoordTime = %v", got)
	}
	// Round 1: slowest site comm = cost(100)+cost(2MiB) = 1ms + (1ms+2s).
	// Round 2: cost(1MiB)+cost(512) = (1ms+1s) + (1ms + 512/1MiB s).
	comm := m.CommTime()
	if comm <= 3*time.Second || comm >= 3200*time.Millisecond {
		t.Errorf("CommTime = %v, expected slightly above 3s", comm)
	}
	if m.ResponseTime() != comm+m.SiteTime()+m.CoordTime() {
		t.Error("ResponseTime must be the sum of its components")
	}
}

func TestRoundAccessors(t *testing.T) {
	m := sampleMetrics()
	r := &m.Rounds[0]
	if r.BytesDown() != 200 || r.BytesUp() != 3<<20 {
		t.Errorf("round bytes = %d/%d", r.BytesDown(), r.BytesUp())
	}
	if r.RowsDown() != 0 || r.RowsUp() != 120 {
		t.Errorf("round rows = %d/%d", r.RowsDown(), r.RowsUp())
	}
	if r.MaxSiteCompute() != 5*time.Millisecond {
		t.Errorf("MaxSiteCompute = %v", r.MaxSiteCompute())
	}
	if got := r.MaxSiteComm(m.Net); got <= 2*time.Second {
		t.Errorf("MaxSiteComm = %v", got)
	}
}

func TestStringRendering(t *testing.T) {
	s := sampleMetrics().String()
	for _, frag := range []string{"base", "MD1", "total:", "response"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String missing %q:\n%s", frag, s)
		}
	}
}

func TestEmptyMetrics(t *testing.T) {
	m := &Metrics{Net: NetModel{}}
	if m.ResponseTime() != 0 || m.TotalBytes() != 0 || m.NumRounds() != 0 {
		t.Error("empty metrics must be zero")
	}
}

// FromProfile keeps every round and only the successful calls: a failed
// attempt's traffic is in the profile's record but not in the metrics.
func TestFromProfile(t *testing.T) {
	p := &obs.QueryProfile{Rounds: []obs.RoundProfile{
		{Name: "base", CoordTime: time.Millisecond, Calls: []obs.SiteCall{
			{Site: 0, Attempt: 1, Failed: true, Err: "boom", BytesDown: 9},
			{Site: 0, Attempt: 2, BytesDown: 10, BytesUp: 20, DataUp: 15, RowsUp: 3},
			{Site: 1, Attempt: 1, BytesDown: 10, BytesUp: 30, DataUp: 25, RowsUp: 4},
		}},
		{Name: "MD1"},
	}}
	m := FromProfile(p, NetModel{})
	if m.NumRounds() != 2 || m.TotalMessages() != 2 {
		t.Fatalf("rounds %d, messages %d; want 2 and 2", m.NumRounds(), m.TotalMessages())
	}
	if m.TotalBytesDown() != 20 || m.TotalBytesUp() != 50 || m.TotalDataBytes() != 40 || m.TotalRows() != 7 {
		t.Errorf("totals: down %d up %d data %d rows %d", m.TotalBytesDown(), m.TotalBytesUp(), m.TotalDataBytes(), m.TotalRows())
	}
	if m.CoordTime() != time.Millisecond {
		t.Errorf("coord time %v", m.CoordTime())
	}
	if FromProfile(nil, NetModel{}).NumRounds() != 0 {
		t.Error("nil profile must give empty metrics")
	}
}
