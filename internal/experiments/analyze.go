package experiments

import (
	"fmt"

	"impact/internal/analysis"
	"impact/internal/cache"
	"impact/internal/interp"
	"impact/internal/ir"
	"impact/internal/profile"
	"impact/internal/smith"
	"impact/internal/texttable"
	"impact/internal/workload"
)

// This file hosts the static-analysis side of the experiments: running
// internal/analysis over the prepared benchmarks and checking its
// must/may miss bounds against the trace-driven simulator — the
// differential invariant that cross-validates the analyzer, the layout
// code, and the sweep engine against each other.

// analyzedEntry is one memoized static analysis.
type analyzedEntry struct {
	res *analysis.Result
	err error
}

// evalProfile profiles prog over b's single evaluation run — the
// identical deterministic execution the evaluation trace records.
func evalProfile(prog *ir.Program, b *workload.Benchmark) (*profile.Weights, []interp.Result, error) {
	return profile.Profile(prog, profile.Config{Seeds: []uint64{b.EvalSeed}, Interp: b.EvalConfig()})
}

// EvalWeights returns the profile of the optimized program over the
// single evaluation run — the exact execution OptTrace records
// (arc choices depend only on seed, config, and program, not on the
// observing sink). Analyses built from these weights have Exact
// bounds: the simulator's misses on OptTrace must bracket.
func (p *Prepared) EvalWeights() (*profile.Weights, error) {
	p.evalWOnce.Do(func() {
		p.evalW, _, p.evalWErr = evalProfile(p.Opt.Prog, p.Bench)
	})
	return p.evalW, p.evalWErr
}

// Analyze returns the memoized static cache-behavior analysis of the
// optimized layout under cfg, built from the evaluation-run weights.
func (p *Prepared) Analyze(cfg cache.Config) (*analysis.Result, error) {
	w, err := p.EvalWeights()
	if err != nil {
		return nil, err
	}
	p.analyzedMu.Lock()
	defer p.analyzedMu.Unlock()
	if p.analyzed == nil {
		p.analyzed = make(map[cache.Config]*analyzedEntry)
	}
	e, ok := p.analyzed[cfg]
	if !ok {
		e = &analyzedEntry{}
		e.res, e.err = analysis.Analyze(p.Opt.Layout, w, analysis.Config{Cache: cfg})
		p.analyzed[cfg] = e
	}
	return e.res, e.err
}

// BoundRow is one benchmark x geometry bound-vs-measurement
// comparison.
type BoundRow struct {
	Name                   string
	CacheBytes, BlockBytes int
	// Lower / Upper are the static miss bounds; Measured is the
	// simulator's miss count on the same run's trace.
	Lower, Measured, Upper uint64
	// Accesses is the fetch count (identical statically and measured).
	Accesses uint64
	// Exact reports that the bounds are guarantees for this run (they
	// always are here — the weights come from the evaluation run —
	// unless the run hit the interpreter step cap).
	Exact bool
}

// OK reports whether the row honours the bracket invariant (vacuously
// true for inexact rows, where the bounds are only estimates).
func (r BoundRow) OK() bool {
	return !r.Exact || (r.Lower <= r.Measured && r.Measured <= r.Upper)
}

// BoundCheck analyses every prepared benchmark's optimized layout
// under every Table-1 geometry (direct-mapped, the organisation the
// paper optimizes for) and pairs the static bounds with the simulated
// miss count of the same evaluation run.
func BoundCheck(s *Suite) ([]BoundRow, error) {
	var reqs []SimRequest
	for _, cs := range smith.CacheSizes {
		for _, bs := range smith.BlockSizes {
			for _, p := range s.Items {
				reqs = append(reqs, SimRequest{p.OptTrace, cache.Config{SizeBytes: cs, BlockBytes: bs, Assoc: 1}})
			}
		}
	}
	stats, err := s.engine().Batch(reqs)
	if err != nil {
		return nil, err
	}
	var rows []BoundRow
	i := 0
	for _, cs := range smith.CacheSizes {
		for _, bs := range smith.BlockSizes {
			for _, p := range s.Items {
				res, err := p.Analyze(cache.Config{SizeBytes: cs, BlockBytes: bs, Assoc: 1})
				if err != nil {
					return nil, fmt.Errorf("%s: %w", p.Name(), err)
				}
				rows = append(rows, BoundRow{
					Name:       p.Name(),
					CacheBytes: cs, BlockBytes: bs,
					Lower:    res.Bounds.Lower,
					Measured: stats[i].Misses,
					Upper:    res.Bounds.Upper,
					Accesses: res.Bounds.Accesses,
					Exact:    res.Bounds.Exact,
				})
				i++
			}
		}
	}
	return rows, nil
}

// BoundErr returns nil when every row honours the bracket invariant,
// and an error naming the violations otherwise.
func BoundErr(rows []BoundRow) error {
	bad := 0
	var first BoundRow
	for _, r := range rows {
		if !r.OK() {
			if bad == 0 {
				first = r
			}
			bad++
		}
	}
	if bad == 0 {
		return nil
	}
	return fmt.Errorf("experiments: %d bound violation(s); first: %s %dB/%dB measured %d outside [%d, %d]",
		bad, first.Name, first.CacheBytes, first.BlockBytes, first.Measured, first.Lower, first.Upper)
}

// RenderBoundCheck formats the bound check: a per-geometry aggregate
// of the bracket, then a per-benchmark layout-quality summary at the
// paper's default geometry.
func RenderBoundCheck(s *Suite, rows []BoundRow) string {
	t := texttable.New("Static must/may miss bounds vs. simulated misses (optimized layout, direct-mapped)",
		"cache", "block", "lower", "measured", "upper", "in bounds")
	for _, cs := range smith.CacheSizes {
		for _, bs := range smith.BlockSizes {
			var lo, mid, hi uint64
			ok, n := 0, 0
			for _, r := range rows {
				if r.CacheBytes != cs || r.BlockBytes != bs {
					continue
				}
				lo += r.Lower
				mid += r.Measured
				hi += r.Upper
				n++
				if r.OK() {
					ok++
				}
			}
			t.Row(fmt.Sprintf("%dB", cs), fmt.Sprintf("%dB", bs),
				texttable.Mega(lo), texttable.Mega(mid), texttable.Mega(hi),
				fmt.Sprintf("%d/%d", ok, n))
		}
	}
	out := t.String()

	const defSize, defBlock = 2048, 64
	q := texttable.New(fmt.Sprintf("Per-benchmark static layout quality (%dB cache, %dB blocks)", defSize, defBlock),
		"benchmark", "fall-thru", "ext-TSP", "AH", "FM", "AM", "NC", "lower", "measured", "upper", "conflict")
	for _, p := range s.Items {
		res, err := p.Analyze(cache.Config{SizeBytes: defSize, BlockBytes: defBlock, Assoc: 1})
		if err != nil {
			q.Row(p.Name(), "error: "+err.Error())
			continue
		}
		b := res.Bounds
		var measured uint64
		for _, r := range rows {
			if r.Name == p.Name() && r.CacheBytes == defSize && r.BlockBytes == defBlock {
				measured = r.Measured
			}
		}
		classPct := func(c analysis.Class) string {
			if b.WeightedLineRefs == 0 {
				return texttable.Pct(0)
			}
			return texttable.Pct(float64(b.RefWeight[c]) / float64(b.WeightedLineRefs))
		}
		ratio := func(misses uint64) string {
			if b.Accesses == 0 {
				return texttable.Pct3(0)
			}
			return texttable.Pct3(float64(misses) / float64(b.Accesses))
		}
		q.Row(p.Name(),
			texttable.Pct(res.Score.FallThroughRatio()),
			fmt.Sprintf("%.3f", res.Score.ExtTSP),
			classPct(analysis.ClassAlwaysHit), classPct(analysis.ClassFirstMiss),
			classPct(analysis.ClassAlwaysMiss), classPct(analysis.ClassUnclassified),
			ratio(b.Lower), ratio(measured), ratio(b.Upper),
			texttable.Mega(res.Conflicts.TotalExcess))
	}
	return out + "\n" + q.String()
}
