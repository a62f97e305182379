// Command perfbench is the repository benchmark: four OLAP workloads over
// seeded TPC-R data, each checked response by response against a reference
// evaluation, reporting caller-side end-to-end metrics (untraced run) or
// per-layer metrics (traced run). README.md in this directory records why
// each workload exists, which layer metric should move which end-to-end
// metric, and the load model.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload rounds-8site --seed 1 --seconds 45 --trace 0
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics; the lines before it print every metric by
// name and unit.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's final output line. Extra holds metrics that are
// printed but not declared in BENCHMARK.json.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Extra     map[string]metric `json:"-"`
}

// endToEndDeclared are the end-to-end metrics BENCHMARK.json declares. The
// others (failed_ops_frac, reload_p50_ms) are printed only: failed_ops_frac
// is 0 on a healthy workload, and the JSON line already carries attempted
// and failed.
var endToEndDeclared = map[string]bool{
	"query_p50_ms": true, "query_p95_ms": true, "goodput_qps": true,
	"wire_mb_per_query": true, "alloc_mb_per_query": true, "setup_s": true,
}

// layerPrintedOnly are the per-layer metrics that are printed but not
// declared in BENCHMARK.json: only serve-reload, which it does not list,
// moves them.
var layerPrintedOnly = map[string]bool{"transport.load_ms_p50": true, "core.stale_frac": true}

// setupRepeats is how many times a run builds its workload; setup_s reports
// the median, and the last build is the one measured.
const setupRepeats = 5

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workloadName = flag.String("workload", "", "workload to run: "+workloadList()+", or all")
		seed         = flag.Int64("seed", 1, "seed of the generated data and statement streams")
		seconds      = flag.Float64("seconds", 45, "measured seconds per run")
		traceFlag    = flag.Int("trace", 0, "0: untraced end-to-end run; 1: traced per-layer run")
		outDir       = flag.String("out", ".bench_build", "directory for segment stores and span files")
	)
	flag.Parse()
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	var names []string
	if *workloadName == "all" {
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if _, ok := findWorkload(*workloadName); ok {
		names = []string{*workloadName}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s or all)\n", *workloadName, workloadList())
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*outDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	ctx := context.Background()
	d := time.Duration(*seconds * float64(time.Second))
	final := report{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		w, _ := findWorkload(name)
		cfg := runConfig{seed: *seed, dir: dir, traceDir: filepath.Join(*outDir, "traces")}
		var rep report
		if *traceFlag == 1 {
			rep, err = tracedRun(ctx, w, cfg, d)
		} else {
			rep, err = untracedRun(ctx, w, cfg, d)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		printMetrics(name, rep)
		final.Correct = final.Correct && rep.Correct
		final.Attempted += rep.Attempted
		final.Failed += rep.Failed
		for k, m := range rep.Metrics {
			if len(names) > 1 {
				k = name + "." + k
			}
			final.Metrics[k] = m
		}
	}
	out, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

func printMetrics(workload string, rep report) {
	all := map[string]metric{}
	for k, m := range rep.Metrics {
		all[k] = m
	}
	for k, m := range rep.Extra {
		all[k] = m
	}
	names := make([]string, 0, len(all))
	for k := range all {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("# %s: correct=%v attempted=%d failed=%d\n", workload, rep.Correct, rep.Attempted, rep.Failed)
	for _, k := range names {
		fmt.Printf("%-14s %-36s %14.6g %s\n", workload, k, all[k].Value, all[k].Unit)
	}
}

// runConfig carries what every workload build needs.
type runConfig struct {
	seed     int64
	dir      string // working space for segment stores, removed at exit
	traceDir string
	tr       *tracer // nil for untraced builds
}

// setupMedian builds the workload setupRepeats times, closing all but the
// last, and returns it with the median build time.
func setupMedian(ctx context.Context, w workload, cfg runConfig) (env, float64, error) {
	var (
		times []float64
		e     env
	)
	for i := 0; i < setupRepeats; i++ {
		if e != nil {
			e.close()
		}
		c := cfg
		c.dir = filepath.Join(cfg.dir, fmt.Sprintf("build%d", i))
		start := time.Now()
		var err error
		e, err = w.setup(ctx, c)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return e, median(times), nil
}

// untracedRun measures the end-to-end metrics.
func untracedRun(ctx context.Context, w workload, cfg runConfig, d time.Duration) (report, error) {
	e, setupS, err := setupMedian(ctx, w, cfg)
	if err != nil {
		return report{}, err
	}
	defer e.close()
	ph, err := e.measure(ctx, d)
	if err != nil {
		return report{}, err
	}
	rep := ph.report()
	rep.Correct = rep.Correct && sameShape(w, ph, ph)
	rep.Metrics, rep.Extra = map[string]metric{"setup_s": {setupS, "s"}}, map[string]metric{}
	for k, m := range ph.endToEnd() {
		if endToEndDeclared[k] {
			rep.Metrics[k] = m
		} else {
			rep.Extra[k] = m
		}
	}
	return rep, nil
}

// tracedRun measures the per-layer metrics: an untraced phase on a plain
// build, then a traced phase on a build whose site and backend boundaries
// are wrapped in timing decorators, each for half the run. Their medians
// give the tracing overhead.
func tracedRun(ctx context.Context, w workload, cfg runConfig, d time.Duration) (report, error) {
	plain, err := w.setup(ctx, runConfig{seed: cfg.seed, dir: filepath.Join(cfg.dir, "plain")})
	if err != nil {
		return report{}, err
	}
	base, err := plain.measure(ctx, d/2)
	plain.close()
	if err != nil {
		return report{}, err
	}

	tr := newTracer()
	traced, err := w.setup(ctx, runConfig{seed: cfg.seed, dir: filepath.Join(cfg.dir, "traced"), tr: tr})
	if err != nil {
		return report{}, err
	}
	defer traced.close()
	tr.clear()
	ph, err := traced.measure(ctx, d/2)
	if err != nil {
		return report{}, err
	}
	lm, err := layerMetrics(ctx, traced, base, ph, tr)
	if err != nil {
		return report{}, err
	}
	if err := tr.write(filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))); err != nil {
		return report{}, fmt.Errorf("write trace: %w", err)
	}
	rep := base.report()
	tp := ph.report()
	rep.Correct = rep.Correct && tp.Correct && sameShape(w, base, ph)
	rep.Attempted += tp.Attempted
	rep.Failed += tp.Failed
	rep.Metrics, rep.Extra = map[string]metric{}, map[string]metric{}
	for k, m := range lm {
		if layerPrintedOnly[k] {
			rep.Extra[k] = m
		} else {
			rep.Metrics[k] = m
		}
	}
	return rep, nil
}
