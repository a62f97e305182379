package core

import (
	"fmt"
	"io"
	"time"

	"skalla/internal/obs"
	"skalla/internal/plan"
	"skalla/internal/stats"
)

// SetTrace streams execution progress — round starts, per-site exchanges,
// retries, round completions — as single-line text to w (nil detaches).
// Tracing is observational only; it never changes plans or results.
func (c *Coordinator) SetTrace(w io.Writer) {
	c.trace = nil
	if w != nil {
		c.trace = obs.NewTraceWriter(w)
	}
}

// SetSlowQueryThreshold makes ExecutePlan log the full profile of any query
// slower than d through the obs logger and count it in
// skalla_coord_slow_queries_total. Zero (the default) disables slow-query
// logging.
func (c *Coordinator) SetSlowQueryThreshold(d time.Duration) { c.slowQuery = d }

// finishProfile completes a query profile after the span closes and derives
// the result's views from it: plan identity and cost estimates are attached,
// Result.Profile and Result.Metrics are set, per-round estimates are joined
// with the measured rounds (Plan.CompareRounds), the cost-model drift gauges
// refresh, the profile lands in the global ring for /debug/queries, and the
// slow-query threshold is applied.
func (c *Coordinator) finishProfile(p *obs.QueryProfile, pl *plan.Plan, res *Result) {
	if p == nil {
		return
	}
	p.Plan = obs.ProfilePlan{
		Fingerprint:  pl.Fingerprint,
		Mode:         pl.Mode,
		Rules:        append([]string(nil), pl.Rules...),
		EstRounds:    pl.Estimate.Rounds,
		EstBytesDown: pl.Estimate.BytesDown,
		EstBytesUp:   pl.Estimate.BytesUp,
	}
	if res != nil {
		res.Profile = p
		res.Metrics = stats.FromProfile(p, c.net)
		costs := pl.CompareRounds(res.Metrics)
		for i := range p.Rounds {
			if i < len(costs) && costs[i].Name == p.Rounds[i].Name {
				p.Rounds[i].EstBytesDown = costs[i].EstBytesDown
				p.Rounds[i].EstBytesUp = costs[i].EstBytesUp
			}
		}
		// Drift gauges: measured over estimated traffic per direction. A ratio
		// above 1 means the cost model undershot; below 1, overshot.
		if est := pl.Estimate.BytesDown; est > 0 {
			obs.PlanCostErrorRatio.With("down").Set(float64(res.Metrics.TotalBytesDown()) / float64(est))
		}
		if est := pl.Estimate.BytesUp; est > 0 {
			obs.PlanCostErrorRatio.With("up").Set(float64(res.Metrics.TotalBytesUp()) / float64(est))
		}
	}
	obs.Profiles.Add(p)
	if c.slowQuery > 0 && p.Elapsed >= c.slowQuery {
		obs.CoordSlowQueries.Inc()
		logSlowQuery(c.slowQuery, p)
	}
}

// logSlowQuery emits one warn line carrying the whole profile: query
// identity, plan, totals, and a rendered per-round breakdown.
func logSlowQuery(threshold time.Duration, p *obs.QueryProfile) {
	rounds := make([]string, 0, len(p.Rounds))
	for i := range p.Rounds {
		r := &p.Rounds[i]
		rounds = append(rounds, fmt.Sprintf("%s: %d calls, %dB down, %dB up, coord %s, elapsed %s",
			r.Name, len(r.Calls), r.BytesDown, r.BytesUp,
			r.CoordTime.Round(10*time.Microsecond), r.Elapsed.Round(10*time.Microsecond)))
	}
	obs.Logger().Warn("slow query",
		"query", p.QueryID,
		"threshold", threshold,
		"elapsed", p.Elapsed,
		"err", p.Err,
		"plan", p.Plan.Fingerprint,
		"mode", p.Plan.Mode,
		"rules", p.Plan.Rules,
		"bytes_down", p.BytesDown(),
		"bytes_up", p.BytesUp(),
		"rounds", rounds,
	)
}
