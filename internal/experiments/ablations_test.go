package experiments

import (
	"strings"
	"testing"

	"impact/internal/cache"
	"impact/internal/check"
	"impact/internal/workload"
)

func avgBy(rows []AblationLayoutRow, strategy string) float64 {
	var m float64
	for _, r := range rows {
		m += r.Miss[strategy]
	}
	return m / float64(len(rows))
}

func TestAblationLayoutOrdering(t *testing.T) {
	s := testSuite(t)
	rows, err := AblationLayout(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("got %d rows", len(rows))
	}
	full := avgBy(rows, "full")
	natural := avgBy(rows, "natural")
	random := avgBy(rows, "random")
	traceOnly := avgBy(rows, "trace-only")
	// The full pipeline must beat both baselines decisively on
	// average, and intermediate strategies should land between the
	// random baseline and the full pipeline.
	if full >= natural {
		t.Errorf("full pipeline (%v) not below natural baseline (%v)", full, natural)
	}
	if full >= random {
		t.Errorf("full pipeline (%v) not below random baseline (%v)", full, random)
	}
	if natural >= random {
		t.Errorf("natural (%v) not below random (%v): random should be the worst", natural, random)
	}
	if traceOnly >= random {
		t.Errorf("trace-only (%v) not below random (%v)", traceOnly, random)
	}
	out := RenderAblationLayout(rows)
	for _, s := range LayoutStrategies {
		if !strings.Contains(out, s) {
			t.Errorf("rendering missing strategy %q", s)
		}
	}
}

func TestAblationAssociativity(t *testing.T) {
	s := testSuite(t)
	rows, err := AblationAssoc(s)
	if err != nil {
		t.Fatal(err)
	}
	var optDM, natFull float64
	for _, r := range rows {
		optDM += r.Optimized[1]
		natFull += r.Natural[0]
		// For the natural layout, associativity can only help (LRU
		// fully associative never has conflict misses).
		if r.Natural[0] > r.Natural[1]+1e-9 && r.Natural[0] > 0.001 {
			// Full associativity can lose to direct-mapped on cyclic
			// over-capacity loops (LRU pathology); only flag large
			// regressions.
			ratio := r.Natural[0] / (r.Natural[1] + 1e-12)
			if ratio > 3 {
				t.Errorf("%s: natural full-assoc (%v) far above direct-mapped (%v)",
					r.Name, r.Natural[0], r.Natural[1])
			}
		}
	}
	n := float64(len(rows))
	optDM /= n
	natFull /= n
	// The paper's claim: a direct-mapped cache with placement
	// optimization compares favourably with a fully associative cache
	// without it.
	if optDM > natFull+0.002 {
		t.Errorf("optimized direct-mapped (%v) worse than natural fully-associative (%v)",
			optDM, natFull)
	}
	out := RenderAblationAssoc(rows)
	if !strings.Contains(out, "full") || !strings.Contains(out, "cccp") {
		t.Error("A2 rendering incomplete")
	}
}

func TestAblationMinProb(t *testing.T) {
	s := testSuite(t)
	// Restrict to three benchmarks for runtime; the sweep re-runs the
	// whole pipeline per threshold.
	small := &Suite{Items: []*Prepared{s.Items[0], s.Items[3], s.Items[9]}}
	rows, err := AblationMinProb(small)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		for _, mp := range MinProbValues {
			if r.Miss[mp] < 0 || r.Miss[mp] > 0.2 {
				t.Errorf("%s @%v: miss %v out of range", r.Name, mp, r.Miss[mp])
			}
			if r.Desirable[mp] <= 0 || r.Desirable[mp] > 1 {
				t.Errorf("%s @%v: desirable %v out of range", r.Name, mp, r.Desirable[mp])
			}
		}
		// A lower threshold admits weaker arcs into traces, so the
		// desirable fraction is weakly higher at 0.5 than at 0.9.
		if r.Desirable[0.5]+1e-9 < r.Desirable[0.9] {
			t.Errorf("%s: desirable fraction not weakly decreasing with MIN_PROB (0.5: %v, 0.9: %v)",
				r.Name, r.Desirable[0.5], r.Desirable[0.9])
		}
	}
	if out := RenderAblationMinProb(rows); !strings.Contains(out, "0.7") {
		t.Error("A3 rendering incomplete")
	}
}

func TestTable9CodeScalingStability(t *testing.T) {
	s := testSuite(t)
	// Three representative benchmarks: worst-case (cccp), mid (yacc),
	// tiny (wc).
	small := &Suite{Items: []*Prepared{s.Items[0], s.Items[8], s.Items[9]}}
	rows, err := Table9(small)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		base := r.Results[1.0]
		for _, f := range Table9Scales {
			got := r.Results[f]
			if got.Miss < 0 || got.Miss > 0.2 {
				t.Errorf("%s @%v: miss %v out of range", r.Name, f, got.Miss)
			}
			// "the cache performance is rather stable" across code
			// densities: within a small absolute band of the 1.0 run.
			if diff := got.Miss - base.Miss; diff > 0.03 || diff < -0.03 {
				t.Errorf("%s @%v: miss %v deviates from base %v by more than 3pp",
					r.Name, f, got.Miss, base.Miss)
			}
		}
	}
	if out := RenderTable9(rows); !strings.Contains(out, "0.5 miss") {
		t.Error("T9 rendering incomplete")
	}
}

func TestAblationReplacement(t *testing.T) {
	s := testSuite(t)
	rows, err := AblationReplacement(s)
	if err != nil {
		t.Fatal(err)
	}
	var lru, fifo, random float64
	for _, r := range rows {
		lru += r.Miss[cache.LRU]
		fifo += r.Miss[cache.FIFO]
		random += r.Miss[cache.RandomRepl]
	}
	// With placement-optimized code, policies should be close: most
	// misses are compulsory/capacity, not policy-sensitive conflicts.
	if lru > 0 && (fifo > lru*3 || random > lru*3) {
		t.Errorf("policies diverge wildly: lru=%v fifo=%v rand=%v", lru, fifo, random)
	}
	if out := RenderAblationReplacement(rows); !strings.Contains(out, "fifo") {
		t.Error("A5 rendering incomplete")
	}
}

func TestAblationGlobalAlgo(t *testing.T) {
	s := testSuite(t)
	// Three benchmarks with real phase structure.
	small := &Suite{Items: []*Prepared{s.Items[0], s.Items[5], s.Items[9]}}
	rows, err := AblationGlobalAlgo(small)
	if err != nil {
		t.Fatal(err)
	}
	var dfs, ph float64
	for _, r := range rows {
		if r.PHMiss < 0 || r.PHMiss > 0.2 {
			t.Errorf("%s: PH miss %v out of range", r.Name, r.PHMiss)
		}
		dfs += r.DFSMiss
		ph += r.PHMiss
	}
	// Both orderings ride on the same intra-function layout; they
	// should land in the same ballpark (within 2x either way).
	if dfs > 0 && (ph > dfs*2 || dfs > ph*2) {
		t.Errorf("orderings diverge: DFS %v vs PH %v", dfs, ph)
	}
	if out := RenderAblationGlobalAlgo(rows); !strings.Contains(out, "PH (1990)") {
		t.Error("A6 rendering incomplete")
	}
}

// TestDerivedRunsInheritCheckMode runs every table that derives
// pipeline variants on a one-benchmark suite prepared under
// check.Warn: each variant — back-end arms on the shared front end and
// Table 9's code-scaled re-runs alike — must carry a verifier report.
func TestDerivedRunsInheritCheckMode(t *testing.T) {
	s, err := PrepareBenchmarksWith([]*workload.Benchmark{workload.ByName("tee", 0.05)}, Options{Check: check.Warn})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AblationLayout(s); err != nil {
		t.Fatal(err)
	}
	if _, err := AblationMinProb(s); err != nil {
		t.Fatal(err)
	}
	if _, _, err := AblationGlobal(s); err != nil {
		t.Fatal(err)
	}
	if _, err := AblationGlobalAlgo(s); err != nil {
		t.Fatal(err)
	}
	if _, err := Table9(s); err != nil {
		t.Fatal(err)
	}
	p := s.Items[0]
	var derived int
	//lint:maprange order-free assertions over every memoized variant
	for name, v := range p.derived {
		if v.res == nil {
			continue // layout:random has no pipeline run
		}
		derived++
		if v.res.Checks == nil || v.res.Checks.Runs == 0 {
			t.Errorf("%s: derived run was not verified", name)
		}
	}
	// 3 layout strategies, 4 MIN_PROB points, no-DFS, Pettis-Hansen
	// and 3 code scales.
	if derived != 12 {
		t.Errorf("%d derived pipeline runs, want 12", derived)
	}
}
