package skalla

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"skalla/internal/flow"
	"skalla/internal/obs"
)

const (
	serveStmtLight = "SELECT SourceAS, COUNT(*) AS flows FROM Flow GROUP BY SourceAS"
	serveStmtHeavy = "SELECT SourceAS, DestAS, SUM(NumBytes) AS bytes FROM Flow GROUP BY SourceAS, DestAS"
)

// startFlowServer builds an n-site flow cluster and serves it on an ephemeral
// port. The returned catalog pointer is the one the coordinator consults, so
// tests can bump its Generation to invalidate the plan cache.
func startFlowServer(t *testing.T, n int, opts ServerOptions) (*QueryServer, *flow.Dataset, *Catalog) {
	t.Helper()
	d, err := flow.Generate(flow.Config{Rows: 2000, Routers: n, SourceAS: 30, DestAS: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	cat := d.Catalog()
	cl, err := NewLocalCluster(n, WithCatalog(cat))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	if err := cl.LoadPartitions(context.Background(), flow.RelationName, d.Parts); err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(cl, "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, d, cat
}

// TestServeConcurrentSessions is the multi-tenant acceptance check: a 4-site
// cluster serves 32 concurrent sessions mixing SQL and query-text statements.
// Every concurrent result must equal the serial baseline, every storm
// statement must hit the prepared-plan cache, and the profile ring must show
// queries from many distinct sessions.
func TestServeConcurrentSessions(t *testing.T) {
	srv, _, _ := startFlowServer(t, 4, ServerOptions{MaxConcurrent: 8})
	stmts := []string{serveStmtLight, serveStmtHeavy, example1Text}

	// Serial baselines: one session, each statement once, all cold.
	warm, err := DialQueryServer(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	base := make([]*Relation, len(stmts))
	for i, s := range stmts {
		rel, info, err := warm.Query(context.Background(), s)
		if err != nil {
			t.Fatalf("serial %d: %v", i, err)
		}
		if rel.Len() == 0 || info.CacheHit {
			t.Fatalf("serial %d: rows=%d cacheHit=%v, want cold rows", i, rel.Len(), info.CacheHit)
		}
		base[i] = rel
	}
	warm.Close()

	hits0 := obs.ServerPlanCacheHits.Value()
	const sessions = 32
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := DialQueryServer(srv.Addr())
			if err != nil {
				t.Errorf("session %d: %v", i, err)
				return
			}
			defer c.Close()
			// Stagger statement order across sessions so cache entries are
			// hammered from every angle.
			for k := 0; k < len(stmts); k++ {
				j := (i + k) % len(stmts)
				rel, info, err := c.Query(context.Background(), stmts[j])
				if err != nil {
					t.Errorf("session %d stmt %d: %v", i, j, err)
					return
				}
				if !rel.EqualMultiset(base[j]) {
					t.Errorf("session %d stmt %d: result differs from serial baseline", i, j)
				}
				if !info.CacheHit {
					t.Errorf("session %d stmt %d: expected plan cache hit", i, j)
				}
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := obs.ServerPlanCacheHits.Value() - hits0; got < sessions*int64(len(stmts)) {
		t.Errorf("plan cache hits during storm = %d, want >= %d", got, sessions*len(stmts))
	}
	// The profile ring retains queries from many distinct sessions.
	distinct := map[string]bool{}
	for _, p := range LastProfiles(obs.DefaultProfileCapacity) {
		if i := strings.IndexByte(p.QueryID, '-'); i > 1 && p.QueryID[0] == 's' {
			distinct[p.QueryID[:i]] = true
		}
	}
	if len(distinct) < 8 {
		t.Errorf("profile ring shows %d distinct sessions, want >= 8", len(distinct))
	}
}

// TestServeCatalogGenerationInvalidation checks plan-cache validity: a cached
// plan survives repeats, a catalog Generation bump forces a recompile (miss
// reason "generation"), and the recompiled plan is cached again.
func TestServeCatalogGenerationInvalidation(t *testing.T) {
	srv, _, cat := startFlowServer(t, 2, ServerOptions{})
	c, err := DialQueryServer(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	query := func() (*Relation, bool) {
		t.Helper()
		rel, info, err := c.Query(context.Background(), serveStmtLight)
		if err != nil {
			t.Fatal(err)
		}
		return rel, info.CacheHit
	}
	cold, hit := query()
	if hit {
		t.Fatal("first execution reported a cache hit")
	}
	repeat, hit := query()
	if !hit || !repeat.EqualMultiset(cold) {
		t.Fatalf("repeat: hit=%v equal=%v, want cached identical result", hit, repeat.EqualMultiset(cold))
	}

	gen0 := obs.ServerPlanCacheMisses.With("generation").Value()
	cat.Bump() // schema/placement change: cached plans are stale
	fresh, hit := query()
	if hit {
		t.Error("statement after Generation bump reported a cache hit")
	}
	if got := obs.ServerPlanCacheMisses.With("generation").Value() - gen0; got != 1 {
		t.Errorf("generation misses = %d, want 1", got)
	}
	if !fresh.EqualMultiset(cold) {
		t.Error("recompiled plan result differs")
	}
	if _, hit := query(); !hit {
		t.Error("recompiled plan was not re-cached")
	}
}

// TestServeMemBudgetIsolation checks the per-query memory budget is per query:
// a statement whose coordinator-side footprint exceeds the budget fails with
// the typed wire code while concurrent small statements complete normally.
func TestServeMemBudgetIsolation(t *testing.T) {
	// 16 KiB sits between the light statement's coordinator footprint (~4 KiB)
	// and the heavy one's (~40 KiB on this dataset).
	srv, _, _ := startFlowServer(t, 4, ServerOptions{MaxConcurrent: 4, QueryMemBudget: 16 << 10})

	var wg sync.WaitGroup
	lightErrs := make([]error, 8)
	for i := range lightErrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := DialQueryServer(srv.Addr())
			if err != nil {
				lightErrs[i] = err
				return
			}
			defer c.Close()
			for k := 0; k < 3; k++ {
				if _, _, err := c.Query(context.Background(), serveStmtLight); err != nil {
					lightErrs[i] = fmt.Errorf("iteration %d: %w", k, err)
					return
				}
			}
		}(i)
	}

	heavy, err := DialQueryServer(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer heavy.Close()
	_, _, err = heavy.Query(context.Background(), serveStmtHeavy)
	var qe *QueryError
	if !errors.As(err, &qe) || qe.Code != "mem_budget" {
		t.Errorf("heavy statement error = %v, want code mem_budget", err)
	}
	// The session survives its budget failure.
	if _, _, err := heavy.Query(context.Background(), serveStmtLight); err != nil {
		t.Errorf("light statement after budget failure: %v", err)
	}

	wg.Wait()
	for i, err := range lightErrs {
		if err != nil {
			t.Errorf("concurrent light session %d: %v", i, err)
		}
	}
}

// TestFacadeConcurrentQueries runs many goroutines through one Cluster (the
// library API, no server) under the race detector with admission and the plan
// cache installed. Profiles must not cross-contaminate: every concurrent
// execution's data-plane byte totals must equal the serial run's, and
// plan-cache hits must return results identical to the cold compile.
func TestFacadeConcurrentQueries(t *testing.T) {
	cl, d := loadedFlowCluster(t, WithSerializedTransport(),
		WithPlanCache(16), WithMaxConcurrent(4))
	defer cl.Close()
	q := flowQuery(t)

	// The very first execution pays one-time transport warm-up bytes, so take
	// the steady-state serial baseline from a second run.
	if _, err := cl.Execute(context.Background(), q, NoOptimizations()); err != nil {
		t.Fatal(err)
	}
	serial, err := cl.Execute(context.Background(), q, NoOptimizations())
	if err != nil {
		t.Fatal(err)
	}
	// Data-plane bytes (codec frames) are a pure function of plan and data;
	// the control plane carries timing fields whose gob size varies.
	wantBytes := serial.Metrics.TotalDataBytes()
	if wantBytes == 0 {
		t.Fatal("serialized transport reported no data-plane bytes")
	}

	const goroutines = 8
	var wg sync.WaitGroup
	ids := make([]string, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, prof, err := cl.ExecuteProfiled(context.Background(), q, NoOptimizations())
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
				return
			}
			if !res.Rel.EqualMultiset(serial.Rel) {
				t.Errorf("goroutine %d: result differs from serial run", i)
			}
			if got := res.Metrics.TotalDataBytes(); got != wantBytes {
				t.Errorf("goroutine %d: data-plane byte total %d, want %d (profile cross-contamination?)", i, got, wantBytes)
			}
			ids[i] = prof.QueryID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if id == "" || seen[id] {
			t.Fatalf("query IDs not unique: %q", ids)
		}
		seen[id] = true
	}

	// Statement path: a plan-cache hit returns the same bytes as the cold
	// compile.
	ctx := context.Background()
	cold, hit, err := cl.queryStatement(ctx, serveStmtLight)
	if err != nil || hit {
		t.Fatalf("cold statement: hit=%v err=%v", hit, err)
	}
	hot, hit, err := cl.queryStatement(ctx, serveStmtLight)
	if err != nil || !hit {
		t.Fatalf("repeat statement: hit=%v err=%v", hit, err)
	}
	if !hot.Rel.EqualMultiset(cold.Rel) {
		t.Error("cache-hit result differs from cold compile")
	}
	_ = d
}
