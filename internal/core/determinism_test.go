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

// gobTimingStep is where gob's encoding of the response timing fields
// (ComputeNS, Profile.EvalNS) grows by a byte: both are int64, which gob
// zigzag-encodes to 2v, so a value of 2^23 ns (≈ 8.4 ms) or more needs one
// more byte than any smaller one (up to 2^31 ns).
const gobTimingStep = 1 << 23

// slowSiteDelay is above gobTimingStep, so the slow site's timing fields are
// a byte wider each than an undelayed run's that stays below it.
const slowSiteDelay = 20 * time.Millisecond

// fastBaselineAttempts bounds the re-runs of the undelayed baseline: on a
// loaded machine (a -race run) site 1's evaluation can itself cross
// gobTimingStep, which erases the byte difference the test asserts.
const fastBaselineAttempts = 20

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
		run := func(coord *Coordinator) *stats.Metrics {
			res, err := coord.ExecuteWith(context.Background(), chainQuery(), opts)
			if err != nil {
				t.Fatal(err)
			}
			return res.Metrics
		}
		// Precondition: every site-1 call of the baseline reports timings
		// below gobTimingStep.
		var want *stats.Metrics
		for attempt := 0; want == nil; attempt++ {
			if attempt == fastBaselineAttempts {
				t.Fatalf("[%s] undelayed site 1 timing reached %v in %d runs; cannot compare envelope sizes",
					opts, time.Duration(gobTimingStep), fastBaselineAttempts)
			}
			if m := run(fast); site1Below(m, gobTimingStep) {
				want = m
			}
		}
		got := run(slow)
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

// site1Below reports whether every call of site 1 reports its compute time
// and its breakdown's evaluation time below limit nanoseconds.
func site1Below(m *stats.Metrics, limit int64) bool {
	for _, r := range m.Rounds {
		for _, c := range r.Calls {
			if c.Site != 1 {
				continue
			}
			if c.Compute.Nanoseconds() >= limit || (c.Breakdown != nil && c.Breakdown.EvalNS >= limit) {
				return false
			}
		}
	}
	return true
}
