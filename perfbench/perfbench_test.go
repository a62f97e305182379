package main

import (
	"context"
	"testing"
	"time"

	"skalla"
	"skalla/internal/egil"
	"skalla/internal/engine"
	"skalla/internal/relation"
	"skalla/internal/transport"
)

// minimalBackend and minimalSite have none of the optional capabilities.
type (
	minimalBackend struct{ transport.Backend }
	minimalSite    struct{ transport.Site }
)

// TestDecoratorsKeepCapabilities: a decorator that hid BatchSite, Loader or
// BatchBackend would move the coordinator onto a fallback path.
func TestDecoratorsKeepCapabilities(t *testing.T) {
	tr := newTracer()
	es := engine.NewSite(0)
	b := traceBackend(es, tr)
	if _, ok := b.(transport.BatchBackend); !ok {
		t.Error("traced engine.Site lost BatchBackend")
	}
	if _, ok := traceBackend(minimalBackend{es}, tr).(transport.BatchBackend); ok {
		t.Error("traced plain backend gained BatchBackend")
	}
	s := traceSite(transport.NewLocalSite(b), tr)
	if _, ok := s.(transport.BatchSite); !ok {
		t.Error("traced LocalSite lost BatchSite")
	}
	if _, ok := s.(transport.Loader); !ok {
		t.Error("traced LocalSite lost Loader")
	}
	plain := traceSite(minimalSite{s}, tr)
	if _, ok := plain.(transport.BatchSite); ok {
		t.Error("traced plain site gained BatchSite")
	}
	if _, ok := plain.(transport.Loader); ok {
		t.Error("traced plain site gained Loader")
	}
}

// TestTracedMatchesUntraced: the decorators change timing only. Result
// rows, rounds, calls and row counts are identical with and without them.
func TestTracedMatchesUntraced(t *testing.T) {
	ctx := context.Background()
	for _, w := range []workload{{"rounds-8site", setupRounds8}, {"local-4site", setupLocal4}} {
		t.Run(w.name, func(t *testing.T) {
			var got [2]*relation.Relation
			var ops [2]op
			for i, tr := range []*tracer{nil, newTracer()} {
				e, err := w.setup(ctx, runConfig{seed: 3, dir: t.TempDir(), tr: tr})
				if err != nil {
					t.Fatal(err)
				}
				be := e.(*batchEnv)
				res, err := be.coord.ExecuteWith(ctx, be.q, be.sel)
				if err != nil {
					t.Fatal(err)
				}
				got[i] = res.Rel
				fillFromMetrics(&ops[i], res.Metrics)
				if tr != nil && len(tr.snapshot()) == 0 {
					t.Error("traced build recorded no spans")
				}
			}
			if !got[0].EqualMultisetApprox(got[1], 1e-9) {
				t.Error("traced result rows differ from untraced")
			}
			a, b := ops[0], ops[1]
			if a.rounds != b.rounds || a.calls != b.calls || a.rowsDown != b.rowsDown || a.rowsUp != b.rowsUp {
				t.Errorf("untraced %+v, traced %+v", a, b)
			}
		})
	}
}

// TestCheckerFlagsStaleRows: a response computed on an older data version
// than the one in force when the statement was issued and completed is
// wrong; the same statement on the current version is right.
func TestCheckerFlagsStaleRows(t *testing.T) {
	ctx := context.Background()
	e, err := setupServe(ctx, runConfig{seed: 5, dir: t.TempDir()}, true, skalla.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	ref, err := newReference(e.cat)
	if err != nil {
		t.Fatal(err)
	}
	const stmt, epoch = 0, serveSites // every site reloaded once
	answer := func(ep int64) *relation.Relation {
		if err := ref.load(ctx, e.versions, ep); err != nil {
			t.Fatal(err)
		}
		rel, err := ref.run(ctx, e.stmts[stmt])
		if err != nil {
			t.Fatal(err)
		}
		return rel
	}
	stale, fresh := answer(0), answer(epoch)
	ph := &phase{ops: []op{
		{stmt: stmt, epochIssue: epoch, epochDone: epoch, rel: stale},
		{stmt: stmt, epochIssue: epoch, epochDone: epoch, rel: fresh},
		{stmt: stmt, epochIssue: 0, epochDone: epoch, rel: stale},
	}}
	if err := e.check(ctx, ph); err != nil {
		t.Fatal(err)
	}
	if ph.ops[0].correct || !ph.ops[1].correct || !ph.ops[2].correct {
		t.Errorf("correct = %v %v %v, want false true true", ph.ops[0].correct, ph.ops[1].correct, ph.ops[2].correct)
	}
}

// TestReloadControlWithoutCaches is the checker's control: the reload storm
// with the result cache and single-flight turned off returns no wrong rows
// for any statement that ran entirely between two reloads, so the stale rows
// the default configuration shows on such statements come from the caches,
// not from the checker. A multi-round statement that a reload overlaps can
// still read one site's old data in one round and its new data in the next;
// those torn reads are counted and logged, not hidden.
func TestReloadControlWithoutCaches(t *testing.T) {
	ctx := context.Background()
	e, err := setupServe(ctx, runConfig{seed: 2, dir: t.TempDir()}, true, skalla.ServerOptions{ResultCacheSize: -1, NoSingleFlight: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	ph, err := e.measure(ctx, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var reloads, quiet, torn int
	for i := range ph.ops {
		o := &ph.ops[i]
		switch {
		case o.reload:
			reloads++
		case o.err != nil:
			t.Errorf("statement failed: %v", o.err)
		case o.epochIssue == o.epochDone:
			quiet++
			if !o.correct {
				t.Errorf("wrong rows without caches and without a concurrent reload: %s", e.stmts[o.stmt])
			}
		case !o.correct:
			torn++
		}
	}
	if reloads == 0 || quiet == 0 {
		t.Errorf("reloads=%d statements between reloads=%d, want both", reloads, quiet)
	}
	t.Logf("%d reloads, %d statements between reloads, %d torn by a concurrent reload", reloads, quiet, torn)
}

// TestStatementStream: the stream repeats for a seed, draws every
// tailEvery-th statement from the tail, and every statement parses.
func TestStatementStream(t *testing.T) {
	stmts := statementSpace(9)
	if len(stmts) != len(statementDims)*2*len(statementWheres)*len(statementAvgCols) {
		t.Fatalf("%d statements", len(stmts))
	}
	seen := map[string]bool{}
	for _, s := range stmts {
		if seen[s] {
			t.Fatalf("duplicate statement %q", s)
		}
		seen[s] = true
		if _, err := egil.ParseStatement(s); err != nil {
			t.Fatalf("%q: %v", s, err)
		}
	}
	a, b := newStream(9, 1), newStream(9, 1)
	tail := 0
	for i := 0; i < 10*tailEvery; i++ {
		x, y := a.next(), b.next()
		if x != y {
			t.Fatal("stream does not repeat for a seed")
		}
		if x >= hotStatements {
			tail++
		}
	}
	if tail != 10 {
		t.Errorf("%d tail statements in %d, want 10", tail, 10*tailEvery)
	}
}

// TestReloadSchedule: reload j moves site j mod 4 to its next version.
func TestReloadSchedule(t *testing.T) {
	for _, c := range []struct {
		epoch int64
		want  [serveSites]int
	}{
		{0, [serveSites]int{0, 0, 0, 0}},
		{1, [serveSites]int{1, 0, 0, 0}},
		{4, [serveSites]int{1, 1, 1, 1}},
		{6, [serveSites]int{2, 2, 1, 1}},
	} {
		for site, want := range c.want {
			if got := versionAt(c.epoch, site); got != want {
				t.Errorf("versionAt(%d, %d) = %d, want %d", c.epoch, site, got, want)
			}
		}
	}
}
