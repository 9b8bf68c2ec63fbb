package experiments

import (
	"reflect"
	"strings"
	"testing"

	"impact/internal/analysis"
	"impact/internal/cache"
	"impact/internal/ir"
	"impact/internal/obs"
	"impact/internal/search"
	"impact/internal/smith"
)

// TestSearchCompareBeatsGreedy is the issue's acceptance experiment:
// at a Table-1 geometry, the conflict-driven search must improve the
// simulator-measured miss count over the greedy pipeline on at least
// 3 of the 10 benchmarks — with every emitted layout passing the
// strict layout analyzers (SearchCompare verifies each one) and the
// adopted layout never measuring worse than greedy on any benchmark.
// Every incremental re-analysis the searches make must take the
// condensed per-set path: a same-size layout never re-solves the whole
// fixpoint.
func TestSearchCompareBeatsGreedy(t *testing.T) {
	s := testSuite(t)
	geom := cache.Config{SizeBytes: 512, BlockBytes: 64, Assoc: 1}
	reg := obs.NewRegistry()
	rows, err := SearchCompare(s, geom, search.Config{Seed: 1, Budget: 160, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("analysis.incremental_updates").Value(); n == 0 {
		t.Fatal("the searches made no incremental updates")
	}
	if n := reg.Counter("analysis.incremental_full_resolves").Value(); n != 0 {
		t.Errorf("the searches ran %d full re-solves, want 0", n)
	}
	if len(rows) != len(s.Items) {
		t.Fatalf("got %d rows, want %d", len(rows), len(s.Items))
	}
	wins := 0
	for _, r := range rows {
		if r.SearchMiss > r.GreedyMiss {
			t.Errorf("%s: adopted layout measures worse than greedy (%.4f > %.4f)",
				r.Name, r.SearchMiss, r.GreedyMiss)
		}
		if r.Won {
			wins++
			if r.SearchMiss >= r.GreedyMiss {
				t.Errorf("%s: Won but miss ratio did not drop", r.Name)
			}
		}
	}
	if wins < 3 {
		t.Errorf("search won on %d/%d benchmarks, want >= 3", wins, len(rows))
	}

	out := RenderSearchCompare(geom, nil, rows)
	if !strings.Contains(out, "Layout search vs greedy") || !strings.Contains(out, "benchmark") {
		t.Fatalf("render missing headers:\n%s", out)
	}
}

// TestIncrementalMatchesFullSuite is the issue's differential gate on
// real pipeline output: across all ten benchmarks and every Table-1
// geometry, re-analysing a moved layout incrementally must be
// bit-identical (modulo the Iterations counter) to a from-scratch
// analysis of the same layout.
func TestIncrementalMatchesFullSuite(t *testing.T) {
	s := testSuite(t)
	for _, p := range s.Items {
		w, err := p.EvalWeights()
		if err != nil {
			t.Fatal(err)
		}
		// One single-function move: swap the two leading functions of
		// the greedy global order and recompose.
		moved := search.Input{
			Prog: p.Opt.Prog, Weights: w,
			Orders: p.Opt.Orders, SplitCold: true,
		}
		moved.Global.Funcs = append([]ir.FuncID(nil), p.Opt.GlobalOrder.Funcs...)
		if len(moved.Global.Funcs) < 2 {
			continue
		}
		moved.Global.Funcs[0], moved.Global.Funcs[1] = moved.Global.Funcs[1], moved.Global.Funcs[0]
		movedLay, err := search.Compose(moved.Prog, moved.Orders, moved.Global, true)
		if err != nil {
			t.Fatal(err)
		}

		for _, cb := range smith.CacheSizes {
			for _, bb := range smith.BlockSizes {
				geom := cache.Config{SizeBytes: cb, BlockBytes: bb, Assoc: 1}
				acfg := analysis.Config{Cache: geom}
				inc, err := analysis.NewIncremental(p.Opt.Layout, w, acfg)
				if err != nil {
					t.Fatalf("%s %dB/%dB: NewIncremental: %v", p.Name(), cb, bb, err)
				}
				got, err := inc.Update(movedLay)
				if err != nil {
					t.Fatalf("%s %dB/%dB: Update: %v", p.Name(), cb, bb, err)
				}
				want, err := analysis.Analyze(movedLay, w, acfg)
				if err != nil {
					t.Fatalf("%s %dB/%dB: Analyze: %v", p.Name(), cb, bb, err)
				}
				g, fw := *got, *want
				g.Iterations, fw.Iterations = 0, 0
				if !reflect.DeepEqual(g, fw) {
					t.Errorf("%s %dB/%dB: incremental result differs from full analysis", p.Name(), cb, bb)
				}
			}
		}
	}
}
