package core

import (
	"container/list"
	"context"
	"sync"

	"skalla/internal/gmdj"
	"skalla/internal/obs"
	"skalla/internal/plan"
)

// planCache is the coordinator's prepared-plan cache. Lookup is keyed by the
// statement source text plus the rule selection (so a cache hit skips parse
// and optimize entirely — in auto mode that is the whole 2^5 candidate
// enumeration); validity is keyed by (Plan.Fingerprint, catalog generation):
// every entry remembers the catalog generation it was compiled under, and a
// lookup against a moved generation is a miss that drops the stale entry (the
// fingerprint itself hashes the generation, so the recompiled plan also gets
// a new identity). Compiled plans are immutable during execution, so one
// cached *plan.Plan may be executed by many concurrent sessions.
type planCache struct {
	mu      sync.Mutex
	cap     int
	lru     list.List // of *planEntry, front = most recent
	entries map[planKey]*list.Element
}

// planKey identifies what the caller asked for: the statement source (raw
// query text at the server, the canonical query string at the facade) and the
// canonical selection string.
type planKey struct {
	text string
	sel  string
}

type planEntry struct {
	key  planKey
	plan *plan.Plan
	gen  uint64 // catalog generation the plan was compiled under
}

func newPlanCache(capacity int) *planCache {
	if capacity <= 0 {
		return nil
	}
	return &planCache{cap: capacity, entries: make(map[planKey]*list.Element, capacity)}
}

// get returns the cached plan for key when it was compiled under the current
// catalog generation. A generation mismatch evicts the entry and reports a
// miss. Nil-safe: a nil cache never hits.
func (pc *planCache) get(key planKey, gen uint64) (*plan.Plan, bool) {
	if pc == nil {
		return nil, false
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	el, ok := pc.entries[key]
	if !ok {
		obs.ServerPlanCacheMisses.With("cold").Inc()
		return nil, false
	}
	e := el.Value.(*planEntry)
	if e.gen != gen {
		pc.lru.Remove(el)
		delete(pc.entries, key)
		obs.ServerPlanCacheMisses.With("generation").Inc()
		return nil, false
	}
	pc.lru.MoveToFront(el)
	obs.ServerPlanCacheHits.Inc()
	return e.plan, true
}

// put stores a compiled plan, evicting the least recently used entry beyond
// capacity, and returns the canonical plan for the key: insertion is
// idempotent per (key, generation), so when two concurrent misses both
// compile, the second writer adopts (and executes) the first's entry instead
// of replacing it and churning the LRU. An entry from a stale generation is
// replaced. Nil-safe: a nil cache returns pl unchanged.
func (pc *planCache) put(key planKey, pl *plan.Plan, gen uint64) *plan.Plan {
	if pc == nil {
		return pl
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if el, ok := pc.entries[key]; ok {
		e := el.Value.(*planEntry)
		if e.gen == gen {
			pc.lru.MoveToFront(el)
			return e.plan
		}
		el.Value = &planEntry{key: key, plan: pl, gen: gen}
		pc.lru.MoveToFront(el)
		return pl
	}
	pc.entries[key] = pc.lru.PushFront(&planEntry{key: key, plan: pl, gen: gen})
	for pc.lru.Len() > pc.cap {
		oldest := pc.lru.Back()
		pc.lru.Remove(oldest)
		delete(pc.entries, oldest.Value.(*planEntry).key)
	}
	return pl
}

// len returns the number of cached plans.
func (pc *planCache) len() int {
	if pc == nil {
		return 0
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.lru.Len()
}

// SetPlanCache installs a prepared-plan cache of the given capacity (0
// disables caching; the default). See planCache for the keying and
// invalidation contract.
func (c *Coordinator) SetPlanCache(capacity int) { c.plans = newPlanCache(capacity) }

// ExecuteCached evaluates the statement identified by text under sel, reusing
// the prepared plan cached for (text, sel) when the catalog generation still
// matches; on a miss, parse produces the query, the plan is compiled (auto
// mode enumerates its candidates exactly once per cached plan) and stored.
// The returned flag reports whether the plan came from the cache. With
// caching disabled this is parse + ExecuteWith.
func (c *Coordinator) ExecuteCached(ctx context.Context, text string, sel plan.Selection, parse func() (gmdj.Query, error)) (*Result, bool, error) {
	key := planKey{text: text, sel: sel.String()}
	if pl, ok := c.plans.get(key, c.cat.Gen()); ok {
		res, err := c.ExecutePlan(ctx, pl, c.SchemaSource(ctx))
		return res, true, err
	}
	q, err := parse()
	if err != nil {
		return nil, false, err
	}
	src := c.SchemaSource(ctx)
	pl, err := c.compile(q, src, sel)
	if err != nil {
		return nil, false, err
	}
	// put adopts a concurrently inserted same-generation entry, so every
	// racing miss ends up executing the one canonical compiled plan.
	pl = c.plans.put(key, pl, c.cat.Gen())
	res, err := c.ExecutePlan(ctx, pl, src)
	return res, false, err
}
