package bench

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"skalla/internal/stats"
	"skalla/internal/tpc"
)

var updateFigures = flag.Bool("update", false, "rewrite testdata/figures.golden from the current figure runners")

// maskTimings zeroes every field of a Row that depends on wall time or on the
// machine's parallelism, leaving the deterministic part: bytes, rows, groups,
// rounds, per-round detail, plan identity and the site scan counters.
func maskTimings(rows []Row) []Row {
	out := make([]Row, len(rows))
	for i, r := range rows {
		r.Time, r.SiteTime, r.CoordTime, r.CommTime = 0, 0, 0, 0
		r.Summary = stats.Summary{}
		r.Workers = 0
		r.Profile.QueryID = ""
		r.Profile.SiteEval = 0
		r.Profile.MaxWorkers = 0
		out[i] = r
	}
	return out
}

// TestFiguresGolden is the byte-identity guard over the paper's figure
// series: Figs. 2–5, the planner modes and the Sect. 5.2 formula run at a
// small fixed scale, and everything but timings must match the committed
// fixture exactly. Regenerate (only when a change is meant to move bytes,
// rows, rounds or plans) with:
//
//	go test ./internal/bench -run TestFiguresGolden -update
func TestFiguresGolden(t *testing.T) {
	const sites, scale = 4, 2
	cfg := tpc.Config{Rows: 4000, Customers: 1200, Nations: 25, CitiesPerNation: 120, Clerks: 3000, Seed: 1}
	ctx := context.Background()
	net := stats.DefaultLAN()
	d, err := tpc.Generate(cfg, sites)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]any{}
	for name, fig := range map[string]func() ([]Row, error){
		"fig2": func() ([]Row, error) { return Fig2(ctx, d, sites, net) },
		"fig3": func() ([]Row, error) { return Fig3(ctx, d, sites, net) },
		"fig4": func() ([]Row, error) { return Fig4(ctx, d, sites, net) },
		"fig5": func() ([]Row, error) { return Fig5(ctx, cfg, sites, scale, false, net) },
		"plan": func() ([]Row, error) { return PlanModes(ctx, d, sites, net) },
	} {
		rows, err := fig()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = maskTimings(rows)
	}
	var formula []FormulaCheck
	for n := 2; n <= sites; n++ {
		fc, err := Fig2Formula(ctx, d, n, net)
		if err != nil {
			t.Fatal(err)
		}
		formula = append(formula, fc)
	}
	got["formula"] = formula

	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	path := filepath.Join("testdata", "figures.golden")
	if *updateFigures {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if string(data) != string(want) {
		t.Errorf("figure series drifted from %s (regenerate with -update only if the change is meant to move bytes, rows, rounds or plans)\n-- got --\n%s", path, data)
	}
}
