package core

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"skalla/internal/plan"
	"skalla/internal/stats"
	"skalla/internal/transport"
	"skalla/internal/transport/faultinject"
)

// slowSiteDelay is above the ~16.7 ms (2^24 ns) point where gob's encoding
// of the response timing fields (ComputeNS, Profile.EvalNS) grows by a byte
// each.
const slowSiteDelay = 20 * time.Millisecond

// slowSiteCluster builds a three-site serialized cluster whose site 1 is a
// relay over its leaf, so a delay injected below the relay lands inside the
// site-side evaluation time the relay reports in its wire envelopes.
func slowSiteCluster(t *testing.T, delay time.Duration) *Coordinator {
	t.Helper()
	global := randomGlobal(rand.New(rand.NewSource(21)), 120, 12)
	sites, cat := buildCluster(t, global, "T", 3, 4, false)
	relay, err := NewRelay(1, []transport.Site{faultinject.Wrap(sites[1], faultinject.Config{Delay: delay})})
	if err != nil {
		t.Fatal(err)
	}
	sites[1] = transport.NewLocalSite(relay)
	coord, err := New(sites, cat, stats.NetModel{})
	if err != nil {
		t.Fatal(err)
	}
	return coord
}

// TestSlowSiteDataPlaneDeterministic: a slow site changes the control plane
// (its envelopes carry larger timing values) but not one data-plane byte —
// per round and per site, the codec frames equal an undelayed run's.
func TestSlowSiteDataPlaneDeterministic(t *testing.T) {
	fast, slow := slowSiteCluster(t, 0), slowSiteCluster(t, slowSiteDelay)
	for _, opts := range []plan.Selection{plan.SelectNone(), plan.SelectAll()} {
		var runs [2]*stats.Metrics
		for i, coord := range []*Coordinator{fast, slow} {
			res, err := coord.ExecuteWith(context.Background(), chainQuery(), opts)
			if err != nil {
				t.Fatal(err)
			}
			runs[i] = res.Metrics
		}
		want, got := runs[0], runs[1]
		if want.TotalDataBytes() == 0 {
			t.Fatalf("[%s] serialized run reported no data-plane bytes", opts)
		}
		if got.NumRounds() != want.NumRounds() {
			t.Fatalf("[%s] %d rounds, undelayed %d", opts, got.NumRounds(), want.NumRounds())
		}
		for r := range want.Rounds {
			wr, gr := &want.Rounds[r], &got.Rounds[r]
			if gr.Name != wr.Name || len(gr.Calls) != len(wr.Calls) {
				t.Fatalf("[%s] round %d is %s with %d calls, undelayed %s with %d",
					opts, r, gr.Name, len(gr.Calls), wr.Name, len(wr.Calls))
			}
			for i, wc := range wr.Calls {
				gc := gr.Calls[i]
				if gc.Site != wc.Site || gc.DataDown != wc.DataDown || gc.DataUp != wc.DataUp {
					t.Errorf("[%s] round %s site %d data plane %d/%d, undelayed site %d %d/%d",
						opts, wr.Name, gc.Site, gc.DataDown, gc.DataUp, wc.Site, wc.DataDown, wc.DataUp)
				}
				if gc.Site == 1 && gc.BytesUp <= wc.BytesUp {
					t.Errorf("[%s] round %s: slow site's wire bytes up %d, undelayed %d; the larger timing envelope is missing",
						opts, wr.Name, gc.BytesUp, wc.BytesUp)
				}
			}
		}
		if got.TotalBytes() <= want.TotalBytes() {
			t.Errorf("[%s] wire total %d, undelayed %d: want the slow envelopes counted", opts, got.TotalBytes(), want.TotalBytes())
		}
	}
}
