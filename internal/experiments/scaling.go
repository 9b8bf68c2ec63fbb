package experiments

import (
	"fmt"

	"impact/internal/cache"
	"impact/internal/core"
	"impact/internal/ir"
	"impact/internal/memtrace"
	"impact/internal/texttable"
)

// Table9Scales are the code scaling factors of the paper's Table 9.
var Table9Scales = []float64{0.5, 0.7, 1.0, 1.1}

// Table9Row holds one benchmark's partial-loading results across code
// scales.
type Table9Row struct {
	Name    string
	Results map[float64]CacheResult // keyed by scale factor
}

// Table9 reproduces the code scaling experiment: every basic block's
// instruction count is scaled uniformly (simulating denser or sparser
// instruction encodings), the whole placement pipeline re-runs on the
// scaled program, and the 2KB/64B partial-loading cache is measured.
// Each (benchmark, factor) pair is one task on the suite's pool.
func Table9(s *Suite) ([]Table9Row, error) {
	nf := len(Table9Scales)
	results, err := collect(s.engine(), len(s.Items)*nf, func(w worker, i int) (CacheResult, error) {
		p, factor := s.Items[i/nf], Table9Scales[i%nf]
		res, err := scaleResult(w, p, factor)
		if err != nil {
			return CacheResult{}, fmt.Errorf("%s at scale %v: %w", p.Name(), factor, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]Table9Row, len(s.Items))
	for i, p := range s.Items {
		out[i] = Table9Row{Name: p.Name(), Results: make(map[float64]CacheResult)}
		for j, factor := range Table9Scales {
			out[i].Results[factor] = results[i*nf+j]
		}
	}
	return out, nil
}

// scaleResult runs the full pipeline and the 2KB/64B partial-loading
// measurement on a code-scaled copy of the benchmark, on w. Scaling
// keeps the control skeleton, so the front end derives the scaled
// program's profiles from the benchmark's own (core.FrontEndFrom) and
// profiles only when that derivation is not provably exact. Pipeline
// re-runs and evaluation traces are memoized per (benchmark, factor);
// factor 1.0 is the prepared state itself, trace included —
// re-deriving it would replay the whole evaluation interpreter for an
// identical trace.
func scaleResult(w worker, p *Prepared, factor float64) (CacheResult, error) {
	var tr *memtrace.Trace
	if factor == 1.0 {
		tr = p.OptTrace
	} else {
		var err error
		variant := fmt.Sprintf("scale:%g", factor)
		_, tr, err = p.deriveTrace(variant, func() (*core.Result, *memtrace.Trace, error) {
			cfg := p.cfg
			cfg.Obs, cfg.Lane = p.obs, w.lane
			front, err := core.FrontEndFrom(p.Front, ir.ScaleCode(p.Bench.Prog, factor), cfg)
			if err != nil {
				return nil, nil, err
			}
			res, err := core.BackEnd(front, cfg)
			return p.traced(w, variant, res, err)
		})
		if err != nil {
			return CacheResult{}, err
		}
	}
	st, err := w.simulate(cache.Config{
		SizeBytes: 2048, BlockBytes: 64, Assoc: 1, PartialLoad: true,
	}, tr)
	if err != nil {
		return CacheResult{}, err
	}
	return CacheResult{Miss: st.MissRatio(), Traffic: st.TrafficRatio()}, nil
}

// RenderTable9 formats Table 9.
func RenderTable9(rows []Table9Row) string {
	headers := []string{"name"}
	for _, f := range Table9Scales {
		headers = append(headers, fmt.Sprintf("%.1f miss", f), fmt.Sprintf("%.1f traffic", f))
	}
	t := texttable.New("Table 9. Effect of Code Scaling (2KB/64B direct-mapped, partial loading)", headers...)
	for _, r := range rows {
		cells := []any{r.Name}
		for _, f := range Table9Scales {
			cells = append(cells, texttable.Pct3(r.Results[f].Miss), texttable.Pct(r.Results[f].Traffic))
		}
		t.Row(cells...)
	}
	return t.String()
}
