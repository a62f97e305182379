package main

import (
	"context"
	"strings"
	"time"

	"skalla/internal/relation"
)

// workload is one traffic mix the benchmark can run.
type workload struct {
	name  string
	setup func(ctx context.Context, cfg runConfig) (env, error)
}

// workloads lists every workload the benchmark runs. README.md says why each
// exists.
var workloads = []workload{
	{"rounds-8site", setupRounds8},
	{"local-4site", setupLocal4},
	{"serve-disk", setupServeDisk},
	{"serve-reload", setupServeReload},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadList() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// env is one built workload: data loaded, sites started, caches warm.
type env interface {
	// measure runs the workload's closed loop for d and marks every
	// operation correct or not, checking outside the timed interval.
	measure(ctx context.Context, d time.Duration) (*phase, error)
	// layers supplies the inputs of the per-layer measurements that are
	// taken after the traced phase.
	layers() layerInputs
	close()
}

// op is one operation of a measured phase: a query, or a reload of one
// site's partition.
type op struct {
	reload  bool
	stmt    int // statement index (serve workloads)
	qid     string
	start   time.Time
	lat     time.Duration
	err     error
	correct bool

	// rel holds a serve response until the post-run check.
	rel                   *relation.Relation
	epochIssue, epochDone int64

	// Accounting the program reports for the query (stats.Call totals).
	calls, rounds                        int
	bytesDown, bytesUp, rowsDown, rowsUp int
	estBytes                             int64
	// callSpans are the per-call envelopes of a serve query, from its
	// profile (start offset and duration on the tracer clock).
	callSpans []span

	// Serve-only result info.
	elapsedNS, queueNS int64
	planHit            bool
	shared             string
	profiled           bool // the coordinator's profile was found
}

func (o *op) wire() int { return o.bytesDown + o.bytesUp }

// phase is one measured interval.
type phase struct {
	ops  []op
	wall time.Duration // measured wall time (check time excluded)
	// allocBytes is the whole-process heap allocation during the measured
	// time; gcCPU/totalCPU the CPU seconds spent in GC and in total.
	allocBytes      uint64
	gcCPU, totalCPU float64
	followers       int64 // single-flight followers during the phase
}

func (ph *phase) queries() []*op {
	var out []*op
	for i := range ph.ops {
		if !ph.ops[i].reload {
			out = append(out, &ph.ops[i])
		}
	}
	return out
}

// report counts attempted and failed operations; failed covers errors,
// refusals and wrong or stale rows, reloads included. Correct is false when
// any operation failed: a failed statement drops out of the latency samples,
// so a run with failures cannot stand for the program's speed.
func (ph *phase) report() report {
	rep := report{Attempted: len(ph.ops)}
	for i := range ph.ops {
		if !ph.ops[i].correct {
			rep.Failed++
		}
	}
	rep.Correct = rep.Failed == 0
	return rep
}

// correctLatencies returns the latencies of correct query responses.
func (ph *phase) correctLatencies() []float64 {
	var out []float64
	for _, o := range ph.queries() {
		if o.correct {
			out = append(out, ms(o.lat))
		}
	}
	return out
}

// endToEnd computes the caller-side metrics of an untraced phase over the
// whole measured time.
func (ph *phase) endToEnd() map[string]metric {
	lat := ph.correctLatencies()
	qs := ph.queries()
	var wire float64
	done := 0
	for _, o := range qs {
		if o.err == nil {
			wire += float64(o.wire())
			done++
		}
	}
	completed := 0
	var reloads []float64
	for i := range ph.ops {
		o := &ph.ops[i]
		if o.err == nil {
			completed++
		}
		if o.reload && o.err == nil {
			reloads = append(reloads, ms(o.lat))
		}
	}
	rep := ph.report()
	m := map[string]metric{
		"query_p50_ms":       {quantile(lat, 0.50), "ms"},
		"query_p95_ms":       {quantile(lat, 0.95), "ms"},
		"goodput_qps":        {ratio(float64(len(lat)), ph.wall.Seconds()), "1/s"},
		"failed_ops_frac":    {ratio(float64(rep.Failed), float64(rep.Attempted)), "frac"},
		"wire_mb_per_query":  {ratio(wire, float64(done)) / 1e6, "MB"},
		"alloc_mb_per_query": {ratio(float64(ph.allocBytes), float64(completed)) / 1e6, "MB"},
	}
	if len(reloads) > 0 {
		m["reload_p50_ms"] = metric{median(reloads), "ms"}
	}
	return m
}

// sameShape reports whether every query of two phases of a batch workload
// (or of one phase, passed twice) reports the same rows, rounds and calls:
// the queries are identical and these counts repeat exactly for a seed.
// Serve workloads mix statements and caches, so only batch workloads are
// compared.
func sameShape(w workload, a, b *phase) bool {
	if strings.HasPrefix(w.name, "serve") {
		return true
	}
	var ref *op
	for _, ph := range []*phase{a, b} {
		for _, o := range ph.queries() {
			if o.err != nil {
				continue
			}
			if ref == nil {
				ref = o
				continue
			}
			if o.calls != ref.calls || o.rounds != ref.rounds || o.rowsDown != ref.rowsDown || o.rowsUp != ref.rowsUp {
				return false
			}
		}
	}
	return true
}
