package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"skalla/internal/engine"
	"skalla/internal/gmdj"
	"skalla/internal/plan"
	"skalla/internal/relation"
	"skalla/internal/stats"
	"skalla/internal/transport"
	"skalla/internal/transport/faultinject"
)

// faultCluster builds a 3-site cluster with site 1 wrapped in the fault
// injector, so failures are partial.
func faultCluster(t *testing.T, cfg faultinject.Config) *Coordinator {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	global := randomGlobal(rng, 80, 12)
	sites, cat := buildCluster(t, global, "T", 3, 4, true)
	sites[1] = faultinject.Wrap(sites[1], cfg)
	coord, err := New(sites, cat, stats.NetModel{})
	if err != nil {
		t.Fatal(err)
	}
	return coord
}

// A site failing at any round must surface a clean error for every
// optimization combination — never a hang, panic, or silent wrong answer.
// The coordinator runs its default (zero) retry policy here: persistent
// failures must stay fail-fast for callers that have their own recovery.
func TestSiteFailureSurfacesError(t *testing.T) {
	for failFrom := 1; failFrom <= 4; failFrom++ {
		coord := faultCluster(t, faultinject.Config{FailFrom: failFrom})
		for _, opts := range allOptionCombos() {
			_, err := coord.Execute(context.Background(), chainQuery(), opts)
			// With generous budgets some plans finish (full-local plans make
			// only one call per site); if an error comes back it must be ours.
			if err != nil && !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("failFrom=%d [%s]: unexpected error %v", failFrom, opts, err)
			}
			if failFrom == 1 && err == nil {
				t.Fatalf("failFrom=1 [%s]: expected failure", opts)
			}
		}
	}
}

// A persistent failure must also defeat a retry policy: MaxAttempts are spent
// and the injected error surfaces instead of looping forever.
func TestPersistentFailureExhaustsRetries(t *testing.T) {
	coord := faultCluster(t, faultinject.Config{FailFrom: 1})
	coord.SetRetryPolicy(RetryPolicy{MaxAttempts: 3})
	_, err := coord.Execute(context.Background(), chainQuery(), plan.None())
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want injected failure after exhausted retries", err)
	}
}

// corruptKeyBlock swaps a key value for one no site owns.
func corruptKeyBlock(b *relation.Relation) *relation.Relation {
	if b.Len() == 0 {
		return b
	}
	bad := b.Clone()
	bad.Tuples[0][0] = relation.NewInt(999999)
	return bad
}

// corruptSchemaBlock replaces the block with one of an unrelated schema.
func corruptSchemaBlock(*relation.Relation) *relation.Relation {
	bad := relation.New(relation.MustSchema(relation.Column{Name: "zz", Kind: relation.KindInt}))
	bad.MustAppend(relation.Tuple{relation.NewInt(1)})
	return bad
}

// Corrupted synchronization input (keys not present in X) must be detected
// by the merger rather than silently dropped.
func TestCorruptKeyDetected(t *testing.T) {
	coord := faultCluster(t, faultinject.Config{MutateBlock: corruptKeyBlock})
	_, err := coord.Execute(context.Background(), chainQuery(), plan.None())
	if err == nil || !strings.Contains(err.Error(), "not in X") {
		t.Errorf("corrupt key: err = %v", err)
	}
}

// A wrong-schema H must be rejected by stage validation — and a retry policy
// must not mask it: data-shaped corruption is permanent, so attempts are not
// burned re-fetching it.
func TestCorruptSchemaDetected(t *testing.T) {
	coord := faultCluster(t, faultinject.Config{MutateBlock: corruptSchemaBlock})
	coord.SetRetryPolicy(RetryPolicy{MaxAttempts: 5})
	_, err := coord.Execute(context.Background(), chainQuery(), plan.None())
	if err == nil {
		t.Fatal("corrupt schema: expected error")
	}
	fs := coord.sites[1].(*faultinject.Site)
	// Base round + one corrupt operator attempt; a retry loop would show more.
	if fs.Calls() > 2 {
		t.Errorf("corrupt schema burned %d calls — retried a permanent error", fs.Calls())
	}
}

// corruptResultSite returns well-formed transport results whose payload has a
// schema the merger must reject — the failure happens at merge time, after
// every site call completed.
type corruptResultSite struct {
	transport.Site
}

func badRelation() *relation.Relation {
	bad := relation.New(relation.MustSchema(relation.Column{Name: "zz", Kind: relation.KindInt}))
	bad.MustAppend(relation.Tuple{relation.NewInt(1)})
	return bad
}

func (s corruptResultSite) EvalBase(ctx context.Context, bq gmdj.BaseQuery) (*relation.Relation, stats.Call, error) {
	_, call, err := s.Site.EvalBase(ctx, bq)
	if err != nil {
		return nil, call, err
	}
	return badRelation(), call, nil
}

func (s corruptResultSite) EvalLocal(ctx context.Context, req engine.LocalRequest) (*relation.Relation, stats.Call, error) {
	_, call, err := s.Site.EvalLocal(ctx, req)
	if err != nil {
		return nil, call, err
	}
	return badRelation(), call, nil
}

// When the coordinator's merge fails after the site calls succeeded, the
// round must still record every completed call — the traffic happened, and
// dropping it silently skews -stats-json and traces.
func TestRoundStatsRecordedOnMergeError(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts plan.Options
	}{
		{"base-union", plan.None()},
		{"local-merge", plan.Options{SyncReduce: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(77))
			global := randomGlobal(rng, 80, 12)
			sites, cat := buildCluster(t, global, "T", 3, 4, true)
			sites[1] = corruptResultSite{sites[1]}
			coord, err := New(sites, cat, stats.NetModel{})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			coord.SetTrace(&buf)
			if _, err := coord.Execute(context.Background(), chainQuery(), tc.opts); err == nil {
				t.Fatal("corrupt payload must fail the merge")
			}
			out := buf.String()
			for _, frag := range []string{"site 0", "site 1", "site 2", ": done"} {
				if !strings.Contains(out, frag) {
					t.Errorf("trace after merge error is missing %q:\n%s", frag, out)
				}
			}
		})
	}
}

// A TCP site process dying mid-conversation must produce a transport error
// under the default (no-retry) policy, and other queries against remaining
// connections must not be affected.
func TestTCPSiteDeath(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	global := randomGlobal(rng, 50, 12)
	gi := global.Schema.MustIndex("g")

	var sites []transport.Site
	var servers []*transport.Server
	for i := 0; i < 2; i++ {
		lo, hi := int64(i)*6, int64(i)*6+5
		es := engine.NewSite(i)
		part := global.Filter(func(tp relation.Tuple) bool { return tp[gi].Int >= lo && tp[gi].Int <= hi })
		if err := es.Load(context.Background(), "T", part); err != nil {
			t.Fatal(err)
		}
		srv, err := transport.Serve(es, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
		cli, err := transport.Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		sites = append(sites, cli)
	}
	defer servers[0].Close()

	coord, _ := New(sites, nil, stats.NetModel{})
	if _, err := coord.Execute(context.Background(), chainQuery(), plan.None()); err != nil {
		t.Fatalf("healthy run failed: %v", err)
	}
	// Kill site 1's server; the next query must fail cleanly.
	servers[1].Close()
	if _, err := coord.Execute(context.Background(), chainQuery(), plan.None()); err == nil {
		t.Error("query against dead site must fail")
	}
}
