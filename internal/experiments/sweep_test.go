package experiments

import (
	"reflect"
	"runtime"
	"testing"

	"impact/internal/cache"
	"impact/internal/memtrace"
	"impact/internal/obs"
	"impact/internal/xrand"
)

func sweepTestTrace(seed uint64, runs int) *memtrace.Trace {
	rng := xrand.New(seed)
	tr := &memtrace.Trace{}
	hot := uint32(rng.Intn(1<<10)) * 4
	for i := 0; i < runs; i++ {
		if rng.Bool(0.7) {
			tr.Run(memtrace.Run{Addr: hot + uint32(rng.Intn(256))*4, Bytes: uint32(rng.IntRange(1, 32)) * 4})
		} else {
			tr.Run(memtrace.Run{Addr: uint32(rng.Intn(1<<13)) * 4, Bytes: uint32(rng.IntRange(1, 16)) * 4})
		}
	}
	return tr
}

// TestEngineBatchMatchesSimulate drives a mixed batch — stack-eligible
// sweeps, replay-only organisations, repeated requests, two traces —
// through a fresh engine and checks every result against sequential
// cache.Simulate.
func TestEngineBatchMatchesSimulate(t *testing.T) {
	e := NewEngine()
	tr1 := sweepTestTrace(1, 1500)
	tr2 := sweepTestTrace(2, 1500)
	var reqs []SimRequest
	for _, tr := range []*memtrace.Trace{tr1, tr2} {
		for _, size := range []int{512, 1024, 2048, 4096} {
			reqs = append(reqs,
				SimRequest{tr, cache.Config{SizeBytes: size, BlockBytes: 64, Assoc: 0}},
				SimRequest{tr, cache.Config{SizeBytes: size, BlockBytes: 64, Assoc: 1}})
		}
		reqs = append(reqs,
			SimRequest{tr, cache.Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 4}},
			SimRequest{tr, cache.Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 4, Replacement: cache.FIFO}},
			SimRequest{tr, cache.Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 1, SectorBytes: 8}},
			SimRequest{tr, cache.Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 1, PartialLoad: true}},
			SimRequest{tr, cache.Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 1, Timing: &cache.TimingConfig{InitialLatency: 8}}},
			// duplicate of an earlier request
			SimRequest{tr, cache.Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 1}})
	}
	got, err := e.Batch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, rq := range reqs {
		want, err := cache.Simulate(rq.Config, rq.Trace)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Errorf("req %d %v: batch %+v, sequential %+v", i, rq.Config, got[i], want)
		}
	}
}

// TestEngineMemoization checks the two dedup levels: within a batch
// and across batches, including content-identical but distinct trace
// values (the ablation re-run case) and canonically-equal configs
// (explicit full associativity vs Assoc 0).
func TestEngineMemoization(t *testing.T) {
	e := NewEngine()
	reg := obs.NewRegistry()
	e.AttachObs(reg)
	tr := sweepTestTrace(3, 800)
	cfg := cache.Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 1}

	if _, err := e.Batch([]SimRequest{{tr, cfg}, {tr, cfg}}); err != nil {
		t.Fatal(err)
	}
	if run, memo := reg.Counter("sweep.sims_run").Value(), reg.Counter("sweep.sims_memoized").Value(); run != 1 || memo != 1 {
		t.Errorf("after first batch: sims_run=%d sims_memoized=%d, want 1, 1", run, memo)
	}

	// A value-identical trace must hit the memo (content addressing).
	clone := &memtrace.Trace{Runs: append([]memtrace.Run(nil), tr.Runs...), Instrs: tr.Instrs}
	st, err := e.Simulate(cfg, clone)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := cache.Simulate(cfg, tr)
	if st != want {
		t.Errorf("memoized result %+v, want %+v", st, want)
	}
	// Explicit full associativity and Assoc 0 are the same organisation.
	full := cache.Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 16}
	if _, err := e.Simulate(full, tr); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Simulate(cache.Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 0}, tr); err != nil {
		t.Fatal(err)
	}
	if run := reg.Counter("sweep.sims_run").Value(); run != 2 {
		t.Errorf("sims_run = %d, want 2 (memo must absorb clone + canonical aliases)", run)
	}
	if memo := reg.Counter("sweep.sims_memoized").Value(); memo != 3 {
		t.Errorf("sims_memoized = %d, want 3", memo)
	}
}

// TestEngineDirectMappedReplacementAliases pins that the canonical key
// ignores the replacement policy for single-way sets: a direct-mapped
// FIFO request is served from the LRU entry and vice versa.
func TestEngineDirectMappedReplacementAliases(t *testing.T) {
	e := NewEngine()
	reg := obs.NewRegistry()
	e.AttachObs(reg)
	tr := sweepTestTrace(4, 500)
	for _, repl := range []cache.Replacement{cache.LRU, cache.FIFO, cache.RandomRepl} {
		cfg := cache.Config{SizeBytes: 512, BlockBytes: 32, Assoc: 1, Replacement: repl}
		st, err := e.Simulate(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := cache.Simulate(cfg, tr)
		if st != want {
			t.Errorf("%v: %+v, want %+v", cfg, st, want)
		}
	}
	if run := reg.Counter("sweep.sims_run").Value(); run != 1 {
		t.Errorf("sims_run = %d, want 1", run)
	}
}

func TestEngineRejectsBadRequests(t *testing.T) {
	e := NewEngine()
	tr := sweepTestTrace(5, 10)
	if _, err := e.Batch([]SimRequest{{nil, cache.Config{SizeBytes: 512, BlockBytes: 32}}}); err == nil {
		t.Error("nil trace accepted")
	}
	if _, err := e.Batch([]SimRequest{{tr, cache.Config{SizeBytes: 7}}}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestFingerprintDistinguishesTraces(t *testing.T) {
	a := sweepTestTrace(6, 300)
	b := sweepTestTrace(7, 300)
	if fingerprint(a) == fingerprint(b) {
		t.Error("distinct traces share a fingerprint")
	}
	clone := &memtrace.Trace{Runs: append([]memtrace.Run(nil), a.Runs...), Instrs: a.Instrs}
	if fingerprint(a) != fingerprint(clone) {
		t.Error("value-identical traces disagree")
	}
}

// TestEngineWorkersSerial pins that Workers: 1 measures strictly
// serially — every trace pass on the one sweep-worker-0 lane — with
// unchanged results.
func TestEngineWorkersSerial(t *testing.T) {
	e := NewEngine()
	e.Configure(EngineConfig{Workers: 1})
	reg := obs.NewRegistry()
	reg.AttachTracer(obs.NewTracer(obs.DefaultTraceCapacity))
	e.AttachObs(reg)
	tr := sweepTestTrace(9, 1200)
	reqs := []SimRequest{
		{tr, cache.Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 1}},
		{tr, cache.Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 2}},
		{tr, cache.Config{SizeBytes: 512, BlockBytes: 32, Assoc: 1, SectorBytes: 8}},
	}
	got, err := e.Batch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, rq := range reqs {
		want, _ := cache.Simulate(rq.Config, rq.Trace)
		if got[i] != want {
			t.Errorf("req %d: serial engine %+v, sequential %+v", i, got[i], want)
		}
	}
	if passes := reg.Counter("sweep.trace_passes").Value(); passes != 2 {
		t.Errorf("trace_passes = %d, want 2 (one stack group, one replay)", passes)
	}
	if lanes := reg.Tracer().LaneNames(); !reflect.DeepEqual(lanes, []string{"main", "sweep-worker-0"}) {
		t.Errorf("Workers:1 lanes = %v, want [main sweep-worker-0]", lanes)
	}
}

// TestEngineTuningLayers pins the worker-count layers: GOMAXPROCS by
// default, and Configure on top (a zero field keeping the layer below).
func TestEngineTuningLayers(t *testing.T) {
	e := NewEngine()
	if w := e.workers(); w != runtime.GOMAXPROCS(0) {
		t.Errorf("default: got workers=%d, want %d", w, runtime.GOMAXPROCS(0))
	}
	e.Configure(EngineConfig{Workers: 5})
	if w := e.workers(); w != 5 {
		t.Errorf("configure: got workers=%d, want 5", w)
	}
	e.Configure(EngineConfig{})
	if w := e.workers(); w != 5 {
		t.Errorf("zero config: got workers=%d, want 5 kept", w)
	}
}
