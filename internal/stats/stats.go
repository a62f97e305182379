// Package stats collects the cost components the paper's evaluation reports:
// bytes and groups (rows) transferred between the coordinator and the sites,
// per-round message counts, site computation time, coordinator computation
// time, and a deterministic network model that converts measured traffic into
// communication time so that response-time curves are reproducible.
package stats

import (
	"fmt"
	"strings"
	"time"

	"skalla/internal/obs"
)

// NetModel is a deterministic LAN cost model: each message pays a fixed
// latency plus size/bandwidth. The zero value means "free network" (pure
// computation timing).
type NetModel struct {
	LatencyPerMsg time.Duration
	BytesPerSec   float64
}

// DefaultLAN approximates the paper's late-90s testbed LAN: 1 ms per message
// and 10 MB/s effective bandwidth.
func DefaultLAN() NetModel {
	return NetModel{LatencyPerMsg: time.Millisecond, BytesPerSec: 10 << 20}
}

// Cost returns the modeled transfer time of one message of the given size.
func (m NetModel) Cost(bytes int) time.Duration {
	d := m.LatencyPerMsg
	if m.BytesPerSec > 0 {
		d += time.Duration(float64(bytes) / m.BytesPerSec * float64(time.Second))
	}
	return d
}

// Call is the one record of a coordinator↔site exchange: the query
// profile's obs.SiteCall, named here for transport.Site implementations.
type Call = obs.SiteCall

// RoundStat is one evaluation round (one local-processing-then-
// synchronization step, Sect. 3.2): its successful calls and the
// coordinator's synchronization time.
type RoundStat struct {
	Name      string
	Calls     []Call
	CoordTime time.Duration // synchronization work at the coordinator
}

func (r *RoundStat) sum(f func(*Call) int) int {
	n := 0
	for i := range r.Calls {
		n += f(&r.Calls[i])
	}
	return n
}

// BytesDown returns the round's total coordinator→sites wire bytes.
func (r *RoundStat) BytesDown() int { return r.sum(func(c *Call) int { return c.BytesDown }) }

// BytesUp returns the round's total sites→coordinator wire bytes.
func (r *RoundStat) BytesUp() int { return r.sum(func(c *Call) int { return c.BytesUp }) }

// DataDown returns the data-plane share of BytesDown (codec frames).
func (r *RoundStat) DataDown() int { return r.sum(func(c *Call) int { return c.DataDown }) }

// DataUp returns the data-plane share of BytesUp (codec frames).
func (r *RoundStat) DataUp() int { return r.sum(func(c *Call) int { return c.DataUp }) }

// RowsDown returns the round's total rows shipped to sites.
func (r *RoundStat) RowsDown() int { return r.sum(func(c *Call) int { return c.RowsDown }) }

// RowsUp returns the round's total rows returned by sites.
func (r *RoundStat) RowsUp() int { return r.sum(func(c *Call) int { return c.RowsUp }) }

// MaxSiteCompute returns the slowest site's computation time (sites work in
// parallel, so this is the round's compute contribution to response time).
func (r *RoundStat) MaxSiteCompute() time.Duration {
	var mx time.Duration
	for _, c := range r.Calls {
		mx = max(mx, c.Compute)
	}
	return mx
}

// MaxSiteComm returns the slowest site's modeled communication time
// (request + response) under the network model.
func (r *RoundStat) MaxSiteComm(m NetModel) time.Duration {
	var mx time.Duration
	for _, c := range r.Calls {
		mx = max(mx, m.Cost(c.BytesDown)+m.Cost(c.BytesUp))
	}
	return mx
}

// Metrics is the cost record of one distributed query evaluation, derived
// from its profile by FromProfile.
type Metrics struct {
	Net    NetModel
	Rounds []RoundStat
}

// FromProfile derives the metrics view of a query's ledger: one RoundStat
// per profiled round, holding the round's successful calls (failed attempts
// stay in the profile only). A nil profile yields empty metrics.
func FromProfile(p *obs.QueryProfile, net NetModel) *Metrics {
	m := &Metrics{Net: net}
	if p == nil {
		return m
	}
	for _, pr := range p.Rounds {
		r := RoundStat{Name: pr.Name, CoordTime: pr.CoordTime}
		for _, c := range pr.Calls {
			if !c.Failed {
				r.Calls = append(r.Calls, c)
			}
		}
		m.Rounds = append(m.Rounds, r)
	}
	return m
}

func (m *Metrics) sum(f func(*RoundStat) int) int {
	n := 0
	for i := range m.Rounds {
		n += f(&m.Rounds[i])
	}
	return n
}

func (m *Metrics) sumDur(f func(*RoundStat) time.Duration) time.Duration {
	var d time.Duration
	for i := range m.Rounds {
		d += f(&m.Rounds[i])
	}
	return d
}

// NumRounds returns the number of synchronization rounds.
func (m *Metrics) NumRounds() int { return len(m.Rounds) }

// TotalBytes returns all wire bytes moved in both directions.
func (m *Metrics) TotalBytes() int { return m.TotalBytesDown() + m.TotalBytesUp() }

// TotalBytesDown returns coordinator→sites wire bytes across rounds.
func (m *Metrics) TotalBytesDown() int { return m.sum((*RoundStat).BytesDown) }

// TotalBytesUp returns sites→coordinator wire bytes across rounds.
func (m *Metrics) TotalBytesUp() int { return m.sum((*RoundStat).BytesUp) }

// TotalDataBytes returns the data-plane bytes moved in both directions: the
// deterministic quantity the paper's byte figures report.
func (m *Metrics) TotalDataBytes() int { return m.TotalDataDown() + m.TotalDataUp() }

// TotalDataDown returns coordinator→sites data-plane bytes across rounds.
func (m *Metrics) TotalDataDown() int { return m.sum((*RoundStat).DataDown) }

// TotalDataUp returns sites→coordinator data-plane bytes across rounds.
func (m *Metrics) TotalDataUp() int { return m.sum((*RoundStat).DataUp) }

// TotalRows returns all base/sub-aggregate rows moved in both directions
// (the "groups transferred" unit of the paper's Sect. 5.2 analysis).
func (m *Metrics) TotalRows() int {
	return m.sum(func(r *RoundStat) int { return r.RowsDown() + r.RowsUp() })
}

// TotalMessages returns the number of site exchanges (one request + one
// response each).
func (m *Metrics) TotalMessages() int { return m.sum(func(r *RoundStat) int { return len(r.Calls) }) }

// SiteTime returns the summed per-round maximum site computation time: the
// compute component of response time with sites running in parallel.
func (m *Metrics) SiteTime() time.Duration { return m.sumDur((*RoundStat).MaxSiteCompute) }

// SiteTimeTotal returns the total computation across all sites (work, not
// response time).
func (m *Metrics) SiteTimeTotal() time.Duration {
	return m.sumDur(func(r *RoundStat) time.Duration {
		var d time.Duration
		for _, c := range r.Calls {
			d += c.Compute
		}
		return d
	})
}

// CoordTime returns the coordinator's synchronization time across rounds.
func (m *Metrics) CoordTime() time.Duration {
	return m.sumDur(func(r *RoundStat) time.Duration { return r.CoordTime })
}

// CommTime returns the modeled communication component of response time:
// per round, the slowest site's request+response transfer.
func (m *Metrics) CommTime() time.Duration {
	return m.sumDur(func(r *RoundStat) time.Duration { return r.MaxSiteComm(m.Net) })
}

// ResponseTime is the modeled end-to-end query evaluation time: per round,
// communication and the slowest site run back-to-back, then the coordinator
// synchronizes. This is the quantity the paper's time figures plot.
func (m *Metrics) ResponseTime() time.Duration {
	return m.CommTime() + m.SiteTime() + m.CoordTime()
}

// String renders a per-round breakdown table.
func (m *Metrics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %10s %10s %8s %8s %12s %12s\n",
		"round", "bytesDown", "bytesUp", "rowsDn", "rowsUp", "siteMax", "coord")
	for i := range m.Rounds {
		r := &m.Rounds[i]
		fmt.Fprintf(&b, "%-14s %10d %10d %8d %8d %12s %12s\n",
			r.Name, r.BytesDown(), r.BytesUp(), r.RowsDown(), r.RowsUp(),
			r.MaxSiteCompute().Round(time.Microsecond), r.CoordTime.Round(time.Microsecond))
	}
	fmt.Fprintf(&b, "total: %d bytes, %d rows, %d msgs, response %s (site %s, coord %s, comm %s)\n",
		m.TotalBytes(), m.TotalRows(), m.TotalMessages(),
		m.ResponseTime().Round(time.Microsecond), m.SiteTime().Round(time.Microsecond),
		m.CoordTime().Round(time.Microsecond), m.CommTime().Round(time.Microsecond))
	return b.String()
}
