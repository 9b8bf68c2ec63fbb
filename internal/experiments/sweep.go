package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"impact/internal/cache"
	"impact/internal/cache/sweep"
	"impact/internal/memtrace"
	"impact/internal/obs"
)

// The sweep engine is the single entry point for every cache
// measurement the experiments make. It exists because the tables
// overlap massively — the same (trace, organisation) pair is measured
// by several tables, the same trace is swept across many organisations,
// and benchmark harnesses regenerate identical tables repeatedly — so
// the engine deduplicates at two levels:
//
//  1. Results are memoized under a content-addressed key (trace
//     fingerprint + canonical organisation), so a measurement is paid
//     for once per process no matter how many tables ask for it, even
//     when a deterministic pipeline re-run produced a fresh but
//     identical trace value.
//  2. Misses are scheduled to minimise trace passes: organisations the
//     LRU stack algorithm covers are grouped by geometry and answered
//     by one stack pass per group (sweep.StackPass), and the remainder
//     share one broadcast replay per trace (cache.MultiSimulate).
//
// Each work unit is one serial trace pass; units run concurrently on
// the engine's pool, largest first. Every derived statistic is
// bit-identical to sequential cache.Simulate — the differential tests
// in sweep_test.go and internal/cache/sweep pin this.
//
// The pool is also where the experiments decide parallelism at all:
// every Suite owns one Engine, and the table builders submit their
// per-benchmark and per-variant work to it as tasks (Engine.each),
// so one worker count bounds the whole reproduction.

// SimRequest names one measurement: a trace replayed into a cache
// organisation.
type SimRequest struct {
	Trace  *memtrace.Trace
	Config cache.Config
}

// canonConfig is a comparable, canonical form of cache.Config used in
// memo keys: explicit associativity (0 becomes the block count), the
// replacement policy flattened to LRU for single-way sets (which never
// consult it), and the timing pointer flattened to values.
type canonConfig struct {
	size, block, assoc int
	sector             int
	repl               cache.Replacement
	partial, prefetch  bool
	timed              bool
	latency            int
	cwf                bool
}

func canonicalize(cfg cache.Config) canonConfig {
	assoc := cfg.Assoc
	if assoc == 0 {
		assoc = cfg.SizeBytes / cfg.BlockBytes
	}
	repl := cfg.Replacement
	if assoc == 1 {
		repl = cache.LRU
	}
	cc := canonConfig{
		size: cfg.SizeBytes, block: cfg.BlockBytes, assoc: assoc,
		sector: cfg.SectorBytes, repl: repl,
		partial: cfg.PartialLoad, prefetch: cfg.PrefetchNext,
	}
	if t := cfg.Timing; t != nil {
		cc.timed, cc.latency, cc.cwf = true, t.InitialLatency, t.CriticalWordFirst
	}
	return cc
}

// config reconstructs a simulatable cache.Config.
func (cc canonConfig) config() cache.Config {
	cfg := cache.Config{
		SizeBytes: cc.size, BlockBytes: cc.block, Assoc: cc.assoc,
		Replacement: cc.repl, SectorBytes: cc.sector,
		PartialLoad: cc.partial, PrefetchNext: cc.prefetch,
	}
	if cc.timed {
		cfg.Timing = &cache.TimingConfig{InitialLatency: cc.latency, CriticalWordFirst: cc.cwf}
	}
	return cfg
}

// simKey identifies one measurement by content, not identity: two
// distinct trace values with equal runs hash to the same key, so
// deterministic pipeline re-runs (ablations, repeated table
// generation) hit the memo.
type simKey struct {
	fp  uint64
	cfg canonConfig
}

// mix64 is the splitmix64 finalizer — a cheap, well-distributed hash
// step for the trace fingerprint.
func mix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// fingerprint content-hashes a trace. Cost is one multiply-xor chain
// per run — negligible next to a simulation, which walks every word.
func fingerprint(tr *memtrace.Trace) uint64 {
	h := mix64(uint64(len(tr.Runs))) ^ mix64(tr.Instrs)
	for _, r := range tr.Runs {
		h = mix64(h ^ (uint64(r.Addr)<<32 | uint64(r.Bytes)))
	}
	return h
}

// sweepObs holds pre-resolved instrument handles.
type sweepObs struct {
	reg          *obs.Registry
	simsRun      *obs.Counter
	simsMemoized *obs.Counter
	stackDerived *obs.Counter
	tracePasses  *obs.Counter
	passReused   *obs.Counter
}

// passKey identifies one stack pass by trace content and geometry.
type passKey struct {
	fp           uint64
	block, nSets int
}

// Engine memoizes and schedules cache measurements. The zero value is
// not usable; use NewEngine. Engines are safe for concurrent use.
type Engine struct {
	mu   sync.Mutex
	cfg  EngineConfig
	memo map[simKey]cache.Stats
	// passes retains every completed stack pass by (trace fingerprint,
	// geometry). A later request for an organisation the pass covers —
	// a new cache size of an already-swept geometry, the classic
	// SweepSizes overlap — is derived arithmetically instead of costing
	// another trace pass (counter sweep.stack_pass_reused).
	passes map[passKey]*sweep.StackPass
	obs    atomic.Pointer[sweepObs]
}

// EngineConfig tunes the engine's parallelism. A zero field means
// "keep the current setting": GOMAXPROCS at construction, or whatever
// a previous Configure chose.
type EngineConfig struct {
	// Workers caps the number of lanes the engine's pool runs at once:
	// trace passes, table tasks and the suite's prepare. Zero means
	// GOMAXPROCS; one runs everything serially on the calling goroutine.
	Workers int
}

// NewEngine returns an empty engine sized to GOMAXPROCS.
func NewEngine() *Engine {
	return &Engine{
		memo:   make(map[simKey]cache.Stats),
		passes: make(map[passKey]*sweep.StackPass),
	}
}

// Configure overrides the engine's tuning for subsequent batches; zero
// fields keep their current values.
func (e *Engine) Configure(cfg EngineConfig) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if cfg.Workers != 0 {
		e.cfg.Workers = cfg.Workers
	}
}

// defaults is the process-wide engine setting (see Configure).
var defaults struct {
	mu  sync.Mutex
	cfg EngineConfig
}

// Configure sets the process-wide engine tuning that every suite
// prepared afterwards starts its engine from; zero fields keep the
// current setting.
func Configure(cfg EngineConfig) {
	defaults.mu.Lock()
	defer defaults.mu.Unlock()
	if cfg.Workers != 0 {
		defaults.cfg.Workers = cfg.Workers
	}
}

// newSuiteEngine returns an engine tuned by the process-wide setting,
// reporting to r (which may be nil).
func newSuiteEngine(r *obs.Registry) *Engine {
	e := NewEngine()
	defaults.mu.Lock()
	e.cfg = defaults.cfg
	defaults.mu.Unlock()
	e.AttachObs(r)
	return e
}

// workers resolves the pool's lane count.
func (e *Engine) workers() int {
	e.mu.Lock()
	workers := e.cfg.Workers
	e.mu.Unlock()
	if workers > 0 {
		return workers
	}
	return runtime.GOMAXPROCS(0)
}

// AttachObs routes engine metrics to r (counters sweep.sims_run,
// sweep.sims_memoized, sweep.stack_pass_sizes, sweep.trace_passes and
// the sweep/batch span). Pass nil to detach.
func (e *Engine) AttachObs(r *obs.Registry) {
	if r == nil {
		e.obs.Store(nil)
		return
	}
	e.obs.Store(&sweepObs{
		reg:          r,
		simsRun:      r.Counter("sweep.sims_run"),
		simsMemoized: r.Counter("sweep.sims_memoized"),
		stackDerived: r.Counter("sweep.stack_pass_sizes"),
		tracePasses:  r.Counter("sweep.trace_passes"),
		passReused:   r.Counter("sweep.stack_pass_reused"),
	})
}

// SweepSizes measures the template organisation at every cache size
// through the engine: requests route into Batch, so results come from
// the memo, a retained stack pass, or a minimal set of new trace
// passes (one stack pass for a fully associative template — the
// classic Mattson sweep — one broadcast replay otherwise). Results are
// in input order and identical to sequential cache.Simulate.
func (e *Engine) SweepSizes(tr *memtrace.Trace, template cache.Config, sizes []int) ([]cache.Stats, error) {
	reqs := make([]SimRequest, len(sizes))
	for i, s := range sizes {
		cfg := template
		cfg.SizeBytes = s
		reqs[i] = SimRequest{Trace: tr, Config: cfg}
	}
	return e.Batch(reqs)
}

// Simulate measures one (trace, organisation) pair through the memo.
func (e *Engine) Simulate(cfg cache.Config, tr *memtrace.Trace) (cache.Stats, error) {
	out, err := e.Batch([]SimRequest{{Trace: tr, Config: cfg}})
	if err != nil {
		return cache.Stats{}, err
	}
	return out[0], nil
}

// workUnit is one trace pass: either a stack pass deriving several
// organisations or a broadcast replay of the rest.
type workUnit struct {
	tr   *memtrace.Trace
	keys []simKey
	// stack geometry; nil keys run through MultiSimulate instead.
	stack             bool
	blockBytes, nSets int
}

// Batch measures every request, deduplicating against the memo and
// within the batch, and returns results in request order.
func (e *Engine) Batch(reqs []SimRequest) ([]cache.Stats, error) { return e.batch(nil, reqs) }

// batch is Batch; a non-nil in is the pool task issuing it, whose lane
// then runs every trace pass inline (see worker).
func (e *Engine) batch(in *worker, reqs []SimRequest) ([]cache.Stats, error) {
	o := e.obs.Load()
	var lane obs.Lane
	if in != nil {
		lane = in.lane
	}
	var sp *obs.Span
	if o != nil {
		sp = o.reg.SpanOn(lane, "sweep/batch")
		sp.SetAttrInt("requests", int64(len(reqs)))
	}
	defer sp.End()

	out := make([]cache.Stats, len(reqs))
	keys := make([]simKey, len(reqs))
	fps := make(map[*memtrace.Trace]uint64)
	for i, rq := range reqs {
		if rq.Trace == nil {
			return nil, fmt.Errorf("experiments: sweep request %d has nil trace", i)
		}
		if err := rq.Config.Validate(); err != nil {
			return nil, err
		}
		fp, ok := fps[rq.Trace]
		if !ok {
			fp = fingerprint(rq.Trace)
			fps[rq.Trace] = fp
		}
		keys[i] = simKey{fp: fp, cfg: canonicalize(rq.Config)}
	}

	// Resolve memo hits — including organisations a retained stack
	// pass already covers — and collect the distinct keys still to
	// run, remembering a representative trace per key and fingerprint.
	pending := make(map[simKey]*memtrace.Trace)
	var memoized, deduped, passHits uint64
	e.mu.Lock()
	for i, k := range keys {
		if st, ok := e.memo[k]; ok {
			out[i] = st
			memoized++
			continue
		}
		if st, ok := e.passStats(k); ok {
			e.memo[k] = st
			out[i] = st
			passHits++
			continue
		}
		if _, ok := pending[k]; ok {
			deduped++
			continue
		}
		pending[k] = reqs[i].Trace
	}
	e.mu.Unlock()
	if o != nil {
		o.simsMemoized.Add(memoized + deduped)
		o.passReused.Add(passHits)
		o.simsRun.Add(uint64(len(pending)))
		sp.SetAttrInt("memo_hits", int64(memoized+deduped))
		sp.SetAttrInt("pass_reused", int64(passHits))
		sp.SetAttrInt("sims", int64(len(pending)))
		if len(pending) == 0 {
			// A fully-memoized batch leaves no task span behind; the
			// instant event keeps the hit visible on the timeline.
			o.reg.Emit(lane, "sweep/memo",
				obs.Attr{Key: "memo", Val: "hit"},
				obs.Int64Attr("requests", int64(len(reqs))))
		}
	}
	if len(pending) == 0 {
		return out, nil
	}

	units := e.plan(pending)
	results := make(map[simKey]cache.Stats, len(pending))
	var resMu sync.Mutex
	do := func(w worker, i int) error {
		u := units[i]
		sp := o.task(w.lane, u)
		got, p, err := u.run()
		sp.End()
		if err != nil {
			return err
		}
		resMu.Lock()
		for i, k := range u.keys {
			results[k] = got[i]
		}
		resMu.Unlock()
		if p != nil {
			e.mu.Lock()
			e.passes[passKey{fp: u.keys[0].fp, block: u.blockBytes, nSets: u.nSets}] = p
			e.mu.Unlock()
		}
		if o != nil {
			o.tracePasses.Inc()
			if u.stack {
				o.stackDerived.Add(uint64(len(u.keys)))
			}
		}
		return nil
	}
	run := e.each
	if in != nil {
		run = in.each
	}
	if err := run(len(units), do); err != nil {
		return nil, err
	}

	e.mu.Lock()
	//lint:maprange map-to-map copy
	for k, st := range results {
		e.memo[k] = st
	}
	e.mu.Unlock()
	for i, k := range keys {
		if st, ok := results[k]; ok {
			out[i] = st
		}
	}
	return out, nil
}

// plan splits the pending keys into trace passes: per trace, one stack
// pass per geometry group that pays for itself (two or more derivable
// organisations, or one whose way scan would be wide), and one
// broadcast replay for everything else.
func (e *Engine) plan(pending map[simKey]*memtrace.Trace) []workUnit {
	type geomKey struct {
		fp           uint64
		block, nSets int
	}
	stackGroups := make(map[geomKey][]simKey)
	eligible := make(map[simKey]geomKey)
	//lint:maprange grouping only; results are keyed, never positional
	for k := range pending {
		cfg := k.cfg.config()
		if sweep.Eligible(cfg) {
			block, sets := sweep.Geometry(cfg)
			g := geomKey{fp: k.fp, block: block, nSets: sets}
			stackGroups[g] = append(stackGroups[g], k)
			eligible[k] = g
		}
	}
	var units []workUnit
	replay := make(map[uint64]*workUnit)
	//lint:maprange unit membership and results are keyed, never positional
	for k, tr := range pending {
		if g, ok := eligible[k]; ok {
			group := stackGroups[g]
			// A lone low-associativity organisation replays as fast as
			// it stacks; group passes and wide way scans favour the
			// stack.
			if len(group) >= 2 || k.cfg.assoc > 8 {
				continue // handled as a stack group below
			}
			delete(stackGroups, g)
		}
		u := replay[k.fp]
		if u == nil {
			u = &workUnit{tr: tr}
			replay[k.fp] = u
		}
		u.keys = append(u.keys, k)
	}
	//lint:maprange pass order does not affect per-key stats, which is all callers see
	for g, group := range stackGroups {
		if len(group) >= 2 || group[0].cfg.assoc > 8 {
			units = append(units, workUnit{
				tr: pending[group[0]], keys: group,
				stack: true, blockBytes: g.block, nSets: g.nSets,
			})
		}
	}
	//lint:maprange pass order does not affect per-key stats, which is all callers see
	for _, u := range replay {
		units = append(units, *u)
	}
	// Largest first: the pool starts units in slice order, so the
	// longest passes never trail at the end of a batch.
	sort.Slice(units, func(i, j int) bool { return units[i].cost() > units[j].cost() })
	return units
}

// cost estimates a unit's work: trace runs times organisations.
func (u workUnit) cost() int { return len(u.tr.Runs) * len(u.keys) }

// passStats serves k from a retained stack pass, if one covers it.
// Caller holds e.mu.
func (e *Engine) passStats(k simKey) (cache.Stats, bool) {
	cfg := k.cfg.config()
	if !sweep.Eligible(cfg) {
		return cache.Stats{}, false
	}
	block, sets := sweep.Geometry(cfg)
	p := e.passes[passKey{fp: k.fp, block: block, nSets: sets}]
	if p == nil {
		return cache.Stats{}, false
	}
	st, err := p.Stats(cfg)
	if err != nil {
		return cache.Stats{}, false
	}
	return st, true
}

// run executes one trace pass and returns stats aligned with u.keys,
// plus the stack pass for the engine to retain (nil for replays).
func (u workUnit) run() ([]cache.Stats, *sweep.StackPass, error) {
	if u.stack {
		p, err := sweep.Run(u.tr, u.blockBytes, u.nSets)
		if err != nil {
			return nil, nil, err
		}
		out := make([]cache.Stats, len(u.keys))
		for i, k := range u.keys {
			st, err := p.Stats(k.cfg.config())
			if err != nil {
				return nil, nil, err
			}
			out[i] = st
		}
		return out, p, nil
	}
	cfgs := make([]cache.Config, len(u.keys))
	for i, k := range u.keys {
		cfgs[i] = k.cfg.config()
	}
	out, err := cache.MultiSimulate(cfgs, u.tr)
	return out, nil, err
}

// task opens the "sweep/task" span of unit u on lane, carrying its
// kind and size, so the concurrency structure of a sweep is legible
// straight off the timeline. Nil without a registry.
func (o *sweepObs) task(lane obs.Lane, u workUnit) *obs.Span {
	if o == nil {
		return nil
	}
	sp := o.reg.SpanOn(lane, "sweep/task")
	if u.stack {
		sp.SetAttr("kind", "stack")
	} else {
		sp.SetAttr("kind", "replay")
	}
	sp.SetAttrInt("orgs", int64(len(u.keys)))
	sp.SetAttrInt("trace_runs", int64(len(u.tr.Runs)))
	return sp
}

// A worker is one lane of an engine's pool, handed to every task the
// pool runs. Measurements a task makes through its worker run inline
// on that lane: nested work never waits on the pool, so it cannot
// deadlock, and busy lanes stay at or below Workers.
type worker struct {
	e *Engine
	// lane is the worker's timeline lane (the main lane without a
	// tracer).
	lane obs.Lane
}

// simulate is Engine.Simulate run inline on w's lane.
func (w worker) simulate(cfg cache.Config, tr *memtrace.Trace) (cache.Stats, error) {
	out, err := w.e.batch(&w, []SimRequest{{Trace: tr, Config: cfg}})
	if err != nil {
		return cache.Stats{}, err
	}
	return out[0], nil
}

// each runs do(w, i) for every i in [0, n) inline on w's lane, stopping
// at the first error.
func (w worker) each(n int, do func(w worker, i int) error) error {
	for i := 0; i < n; i++ {
		if err := do(w, i); err != nil {
			return err
		}
	}
	return nil
}

// each runs do(w, i) for every i in [0, n) as tasks on the engine's
// pool, whose lanes are named "sweep-worker-N", and returns the first
// error in item order.
func (e *Engine) each(n int, do func(w worker, i int) error) error {
	return e.spread("sweep-worker", n, do)
}

// spread runs do(w, i) for every i in [0, n) on at most Workers lanes
// named prefix-N and returns the first error in item order (not in
// completion order). Lane N starts with item N and then claims the
// lowest unclaimed item from one shared queue, so items start in index
// order and every lane gets work. Once an item has failed, later items
// are skipped: they cannot change the result. Tracer lanes dedupe by
// name, so the lanes are stable across calls. One lane runs every item
// on the calling goroutine.
func (e *Engine) spread(prefix string, n int, do func(w worker, i int) error) error {
	if n == 0 {
		return nil
	}
	var reg *obs.Registry
	if o := e.obs.Load(); o != nil {
		reg = o.reg
	}
	lanes := min(e.workers(), n)
	newWorker := func(k int) worker {
		return worker{e: e, lane: reg.NewLane(fmt.Sprintf("%s-%d", prefix, k))}
	}
	if lanes == 1 {
		return newWorker(0).each(n, do)
	}
	var mu sync.Mutex
	first, firstErr := n, error(nil) // the lowest failed item so far
	var next atomic.Int64
	next.Store(int64(lanes))
	var wg sync.WaitGroup
	for k := 0; k < lanes; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			w := newWorker(k)
			for i := k; i < n; i = int(next.Add(1) - 1) {
				mu.Lock()
				skip := i > first
				mu.Unlock()
				if skip {
					continue
				}
				if err := do(w, i); err != nil {
					mu.Lock()
					if i < first {
						first, firstErr = i, err
					}
					mu.Unlock()
				}
			}
		}(k)
	}
	wg.Wait()
	return firstErr
}

// collect runs f for every index in [0, n) as tasks on e's pool and
// returns the results by index, or the first error in index order.
func collect[T any](e *Engine, n int, f func(w worker, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := e.each(n, func(w worker, i int) (err error) {
		out[i], err = f(w, i)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
