package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"skalla"
	"skalla/internal/core"
	"skalla/internal/distrib"
	"skalla/internal/egil"
	"skalla/internal/engine"
	"skalla/internal/obs"
	"skalla/internal/plan"
	"skalla/internal/relation"
	"skalla/internal/stats"
	"skalla/internal/store"
	"skalla/internal/tpc"
	"skalla/internal/transport"
)

// Serve workload shape. Each of the 4 sites holds about 4,000 rows; at
// serveSegmentRows rows per segment that is 8 segments, twice the segment
// store's 4-segment cache, so scans read from disk. The hot set (18
// statements) fits the server's 64-entry result cache; the tail (the other
// 702 statements of the space) does not.
var serveData = tpc.Config{Rows: 16000, Customers: 1000, Nations: 25, CitiesPerNation: 40, Clerks: 1000}

const (
	serveSites       = 4
	serveSegmentRows = 512
	serveSessions    = 2 // = nproc of the reference box; each session waits for its reply
	hotPerStratum    = 3
	// Every tailEvery-th statement of a session comes from the tail, the
	// rest from the hot set: the median is the hit path and the 95th
	// percentile the miss path.
	tailEvery = 10
	// Session 0 reloads one site's partition before every reloadEvery-th
	// statement, cycling over the sites, while versions last.
	reloadEvery    = 10
	reloadVersions = 8
)

// The statement space groups on three columns with about 1,000 groups each
// in serveData: CustName and CityKey are partition-aligned (Cor. 1 answers
// them in one local round), Clerk is not (base, operator and
// synchronization rounds). Equal group counts keep the cost of a cache hit,
// which clones and sorts the cached result, the same for every statement.
// The WHERE thresholds keep nearly every group. HAVING EACH compares a
// column with its own average only for ExtendedPrice (continuous, so no row
// ties the average) and Quantity (integers, whose sums and so averages are
// exact in any summation order): on a column like Tax a row can equal the
// average up to the last bit, and which side it falls on would depend on
// the order partial sums were merged in.
var (
	statementDims    = []string{"CustName", "CityKey", "Clerk"}
	statementAvgCols = []string{"ExtendedPrice", "Quantity"}
	statementWheres  = func() []string {
		var out []string
		for k := 1; k <= 30; k++ {
			out = append(out, fmt.Sprintf("Quantity >= %d", k), fmt.Sprintf("Quantity <= %d", 51-k))
		}
		return out
	}()
)

// hotStatements is the size of the hot set: hotPerStratum statements from
// each (grouping column, HAVING EACH or not) stratum of 120.
var hotStatements = hotPerStratum * len(statementDims) * 2

// statementSpace returns the seeded statement space: the hot set first, then
// the tail. ORDER BY the grouping column makes LIMIT deterministic.
func statementSpace(seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	var hot, tail []string
	for _, dim := range statementDims {
		for _, having := range []bool{false, true} {
			var stratum []string
			for _, where := range statementWheres {
				for _, col := range statementAvgCols {
					s := fmt.Sprintf("SELECT %s, COUNT(*) AS cnt, AVG(%s) AS avg_val FROM %s WHERE %s GROUP BY %s",
						dim, col, tpc.RelationName, where, dim)
					if having {
						s += fmt.Sprintf(" HAVING EACH %s >= avg_val", col)
					}
					stratum = append(stratum, s+fmt.Sprintf(" ORDER BY %s LIMIT 20", dim))
				}
			}
			rng.Shuffle(len(stratum), func(i, j int) { stratum[i], stratum[j] = stratum[j], stratum[i] })
			hot = append(hot, stratum[:hotPerStratum]...)
			tail = append(tail, stratum[hotPerStratum:]...)
		}
	}
	return append(hot, tail...)
}

// stream draws one session's statement indices: a fixed pattern of hot and
// tail statements, with tail statements cycling over the strata so that
// every run misses the cache equally often on each kind of statement, and
// seeded choices within the hot set and within a stratum's tail.
type stream struct {
	rng     *rand.Rand
	session int
	n       int
}

func newStream(seed int64, session int) *stream {
	return &stream{rng: rand.New(rand.NewSource(seed*7919 + int64(session) + 1)), session: session}
}

func (s *stream) next() int {
	s.n++
	if s.n%tailEvery != 0 {
		return s.rng.Intn(hotStatements)
	}
	strata := len(statementDims) * 2
	stratum := (s.n/tailEvery + s.session) % strata
	perStratum := len(statementWheres)*len(statementAvgCols) - hotPerStratum
	return hotStatements + stratum*perStratum + s.rng.Intn(perStratum)
}

// serveEnv is skalla.Serve with default options over loopback-TCP sites.
type serveEnv struct {
	reload   bool
	seed     int64
	versions []*tpc.Dataset // versions[0] is loaded at setup
	cat      *distrib.Catalog
	addrs    []string
	servers  []*transport.Server
	cluster  *skalla.Cluster
	qs       *skalla.QueryServer
	clients  []*skalla.QueryClient
	stmts    []string
	tr       *tracer
}

func setupServeDisk(ctx context.Context, cfg runConfig) (env, error) {
	return asEnv(setupServe(ctx, cfg, false, skalla.ServerOptions{}))
}

func setupServeReload(ctx context.Context, cfg runConfig) (env, error) {
	return asEnv(setupServe(ctx, cfg, true, skalla.ServerOptions{}))
}

// asEnv keeps a failed build from becoming a non-nil env holding nil.
func asEnv(e *serveEnv, err error) (env, error) {
	if err != nil {
		return nil, err
	}
	return e, nil
}

// setupServe builds a serve workload. The benchmark always passes the zero
// ServerOptions (the product's defaults); tests pass others as controls.
func setupServe(ctx context.Context, cfg runConfig, reload bool, opts skalla.ServerOptions) (_ *serveEnv, err error) {
	e := &serveEnv{reload: reload, seed: cfg.seed, tr: cfg.tr, stmts: statementSpace(cfg.seed)}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	versions := 1
	if reload {
		versions += reloadVersions
	}
	for v := 0; v < versions; v++ {
		dc := serveData
		dc.Seed = cfg.seed + int64(v)*1000003
		d, err := tpc.Generate(dc, serveSites)
		if err != nil {
			return nil, err
		}
		e.versions = append(e.versions, d)
	}
	if e.cat, err = e.versions[0].Catalog(serveSites); err != nil {
		return nil, err
	}
	for i := 0; i < serveSites; i++ {
		es := engine.NewSite(i)
		part := e.versions[0].Parts[i]
		if reload {
			// In memory: Load would turn a disk site into a memory site.
			err = es.Load(ctx, tpc.RelationName, part)
		} else {
			var tbl *store.Table
			tbl, err = store.CreateFrom(filepath.Join(cfg.dir, fmt.Sprintf("site%d", i)), tpc.RelationName, part, serveSegmentRows)
			if err == nil {
				err = es.LoadSource(tpc.RelationName, tbl)
			}
		}
		if err != nil {
			return nil, err
		}
		var b transport.Backend = es
		if cfg.tr != nil {
			b = traceBackend(b, cfg.tr)
		}
		srv, err := transport.Serve(b, "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		e.servers = append(e.servers, srv)
		e.addrs = append(e.addrs, srv.Addr())
	}
	if e.cluster, err = skalla.Connect(e.addrs, skalla.WithCatalog(e.cat)); err != nil {
		return nil, err
	}
	if e.qs, err = skalla.Serve(e.cluster, "127.0.0.1:0", opts); err != nil {
		return nil, err
	}
	for s := 0; s < serveSessions; s++ {
		c, err := skalla.DialQueryServerContext(ctx, e.qs.Addr())
		if err != nil {
			return nil, err
		}
		e.clients = append(e.clients, c)
	}
	// Warm-up: every session runs the hot set once, filling the plan and
	// result caches and each connection's gob type descriptors.
	for _, c := range e.clients {
		for i := 0; i < hotStatements; i++ {
			if _, _, err := c.Query(ctx, e.stmts[i]); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return e, nil
}

func (e *serveEnv) close() {
	for _, c := range e.clients {
		c.Close()
	}
	if e.qs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = e.qs.Shutdown(ctx) // idle sessions: nothing to drain
		cancel()
	}
	if e.cluster != nil {
		e.cluster.Close()
	}
	for _, s := range e.servers {
		s.Close()
	}
}

// versionAt returns the data version site i holds after the first epoch
// reloads of the schedule (reload j replaces site j mod 4 with its next
// version).
func versionAt(epoch int64, site int) int {
	if epoch <= int64(site) {
		return 0
	}
	return int((epoch-int64(site)-1)/serveSites) + 1
}

func maxReloads() int64 { return reloadVersions * serveSites }

// measure runs serveSessions closed loops until d has passed, then checks
// every response.
func (e *serveEnv) measure(ctx context.Context, d time.Duration) (*phase, error) {
	var (
		epoch atomic.Int64
		mu    sync.Mutex
		ops   []op
		wg    sync.WaitGroup
	)
	r0 := readRuntime()
	f0 := obs.ServerSingleflightFollowers.Value()
	start := time.Now()
	deadline := start.Add(d)
	for s := range e.clients {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			st := newStream(e.seed, s)
			var local []op
			for n := 0; time.Now().Before(deadline); n++ {
				if e.reload && s == 0 && n%reloadEvery == reloadEvery-1 && epoch.Load() < maxReloads() {
					local = append(local, e.reloadOp(ctx, &epoch))
				}
				local = append(local, e.queryOp(ctx, s, st.next(), &epoch))
			}
			mu.Lock()
			ops = append(ops, local...)
			mu.Unlock()
		}(s)
	}
	wg.Wait()
	wall := time.Since(start)
	r1 := readRuntime()
	ph := &phase{
		ops:        ops,
		wall:       wall,
		allocBytes: r1.allocBytes - r0.allocBytes,
		gcCPU:      r1.gcCPU - r0.gcCPU,
		totalCPU:   r1.totalCPU - r0.totalCPU,
		followers:  obs.ServerSingleflightFollowers.Value() - f0,
	}
	if err := e.check(ctx, ph); err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	return ph, nil
}

// reloadOp replaces the next scheduled site's partition with its next data
// version through Cluster.Load.
func (e *serveEnv) reloadOp(ctx context.Context, epoch *atomic.Int64) op {
	j := epoch.Load()
	site := int(j % serveSites)
	rel := e.versions[versionAt(j+1, site)].Parts[site]
	o := op{reload: true, start: time.Now(), epochIssue: j}
	var traceStart int64
	if e.tr != nil {
		traceStart = e.tr.now()
	}
	o.err = e.cluster.Load(ctx, site, tpc.RelationName, rel)
	o.lat = time.Since(o.start)
	if e.tr != nil {
		e.tr.record(span{Name: spanCallLoad, QueryID: fmt.Sprintf("reload%d", j), Site: site, Start: traceStart, End: e.tr.now()})
	}
	if o.err == nil {
		epoch.Add(1)
		o.correct = true
	}
	o.epochDone = epoch.Load()
	return o
}

// queryOp runs one statement and records its response and the program's
// accounting for it.
func (e *serveEnv) queryOp(ctx context.Context, s, idx int, epoch *atomic.Int64) op {
	o := op{stmt: idx, epochIssue: epoch.Load(), start: time.Now()}
	var traceStart int64
	if e.tr != nil {
		traceStart = e.tr.now()
	}
	rel, info, err := e.clients[s].Query(ctx, e.stmts[idx])
	o.lat = time.Since(o.start)
	o.epochDone = epoch.Load()
	if err != nil {
		o.err = err
		return o
	}
	o.rel = rel
	o.qid = info.QueryID
	o.elapsedNS, o.queueNS, o.planHit = info.ElapsedNS, info.QueueNS, info.CacheHit
	if e.tr != nil {
		e.tr.record(span{Name: spanQuery, QueryID: o.qid, Site: -1, Start: traceStart, End: e.tr.now()})
	}
	if prof := obs.Profiles.Get(info.QueryID); prof != nil {
		fillFromProfile(&o, prof, e.tr)
	}
	return o
}

// fillFromProfile copies the statement's stats.Call totals from the
// coordinator's profile. Cache-served statements have no calls and count as
// zero bytes. With a tracer, the per-call envelopes become transport spans:
// the facade builds its own site clients, so serve workloads cannot wrap
// them.
func fillFromProfile(o *op, p *obs.QueryProfile, tr *tracer) {
	o.profiled = true
	o.rounds = len(p.Rounds)
	o.shared = p.Shared
	o.estBytes = p.Plan.EstBytesDown + p.Plan.EstBytesUp
	for _, r := range p.Rounds {
		o.bytesDown += r.BytesDown
		o.bytesUp += r.BytesUp
		o.rowsDown += r.RowsDown
		o.rowsUp += r.RowsUp
		name := spanCallOperator
		switch {
		case strings.HasPrefix(r.Name, "local"):
			name = spanCallLocal
		case strings.HasPrefix(r.Name, "base"):
			name = spanCallBase
		}
		for _, c := range r.Calls {
			if c.Failed {
				continue
			}
			o.calls++
			if tr != nil {
				s := int64(c.Start.Sub(tr.epoch))
				o.callSpans = append(o.callSpans, span{Name: name, QueryID: p.QueryID, Site: c.Site, Start: s, End: s + int64(c.Elapsed)})
			}
		}
	}
	if tr != nil {
		for _, s := range o.callSpans {
			tr.record(s)
		}
	}
}

// check compares every response with the same statement run through egil on
// a cache-free in-memory cluster holding the data version in force when the
// statement was issued or when it completed.
func (e *serveEnv) check(ctx context.Context, ph *phase) error {
	ref, err := newReference(e.cat)
	if err != nil {
		return err
	}
	type key struct {
		stmt  int
		epoch int64
	}
	want := map[key]*relation.Relation{}
	var needed []key
	for _, o := range ph.queries() {
		if o.err != nil {
			continue
		}
		for _, ep := range []int64{o.epochIssue, o.epochDone} {
			k := key{o.stmt, ep}
			if _, ok := want[k]; !ok {
				want[k] = nil
				needed = append(needed, k)
			}
		}
	}
	sort.Slice(needed, func(i, j int) bool {
		if needed[i].epoch != needed[j].epoch {
			return needed[i].epoch < needed[j].epoch
		}
		return needed[i].stmt < needed[j].stmt
	})
	loaded := int64(-1)
	for _, k := range needed {
		if k.epoch != loaded {
			if err := ref.load(ctx, e.versions, k.epoch); err != nil {
				return err
			}
			loaded = k.epoch
		}
		rel, err := ref.run(ctx, e.stmts[k.stmt])
		if err != nil {
			return fmt.Errorf("reference %q: %w", e.stmts[k.stmt], err)
		}
		want[k] = rel
	}
	for _, o := range ph.queries() {
		if o.err != nil {
			continue
		}
		o.correct = o.rel.EqualMultisetApprox(want[key{o.stmt, o.epochIssue}], 1e-9) ||
			o.rel.EqualMultisetApprox(want[key{o.stmt, o.epochDone}], 1e-9)
		o.rel = nil
	}
	return nil
}

// reference is a cache-free in-memory cluster for the serve checker.
type reference struct {
	sites []*engine.Site
	coord *core.Coordinator
}

func newReference(cat *distrib.Catalog) (*reference, error) {
	r := &reference{}
	var sites []transport.Site
	for i := 0; i < serveSites; i++ {
		es := engine.NewSite(i)
		r.sites = append(r.sites, es)
		sites = append(sites, transport.NewFastLocalSite(es))
	}
	var err error
	r.coord, err = core.New(sites, cat, stats.NetModel{})
	return r, err
}

func (r *reference) load(ctx context.Context, versions []*tpc.Dataset, epoch int64) error {
	for i, es := range r.sites {
		if err := es.Load(ctx, tpc.RelationName, versions[versionAt(epoch, i)].Parts[i]); err != nil {
			return err
		}
	}
	return nil
}

func (r *reference) run(ctx context.Context, stmt string) (*relation.Relation, error) {
	st, err := egil.ParseStatement(stmt)
	if err != nil {
		return nil, err
	}
	q, err := st.ToQuery()
	if err != nil {
		return nil, err
	}
	res, err := r.coord.ExecuteWith(ctx, q, plan.SelectAll())
	if err != nil {
		return nil, err
	}
	if err := st.Postprocess(res.Rel); err != nil {
		return nil, err
	}
	return res.Rel, nil
}

// layers plans through a coordinator of its own dialed to the same sites, so
// plan timing includes the schema fetch a cold server compile makes.
func (e *serveEnv) layers() layerInputs {
	in := layerInputs{sel: plan.SelectAll()}
	for _, s := range e.stmts[:hotStatements] {
		st, err := egil.ParseStatement(s)
		if err != nil {
			continue
		}
		q, err := st.ToQuery()
		if err != nil {
			continue
		}
		in.queries = append(in.queries, q)
	}
	in.statements = e.stmts
	in.dial = func(ctx context.Context) (*core.Coordinator, func(), error) {
		var (
			sites   []transport.Site
			clients []*transport.Client
		)
		closeAll := func() {
			for _, c := range clients {
				c.Close()
			}
		}
		for _, a := range e.addrs {
			c, err := transport.DialContext(ctx, a)
			if err != nil {
				closeAll()
				return nil, nil, err
			}
			clients = append(clients, c)
			sites = append(sites, c)
		}
		coord, err := core.New(sites, e.cat, stats.NetModel{})
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		return coord, closeAll, nil
	}
	return in
}
