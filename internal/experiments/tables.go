package experiments

import (
	"fmt"

	"impact/internal/cache"
	"impact/internal/smith"
	"impact/internal/texttable"
)

// CacheResult is one (miss ratio, traffic ratio) measurement.
type CacheResult struct {
	Miss    float64
	Traffic float64
}

// ---------------------------------------------------------------------------
// Table 1 — Design target miss ratios (fully associative).

// Table1Cell compares Smith's design target with our measured
// baseline (fully associative LRU on the natural layout, averaged
// over the suite) and the optimized direct-mapped result.
type Table1Cell struct {
	CacheBytes int
	BlockBytes int
	// Smith is the published design-target miss ratio.
	Smith float64
	// NaturalFA is the measured suite-average miss ratio of a fully
	// associative cache over the unoptimized layout.
	NaturalFA float64
	// OptimizedDM is the measured suite-average miss ratio of a
	// direct-mapped cache over the optimized layout.
	OptimizedDM float64
}

// Table1 reproduces the design-target comparison. All measurements go
// through one engine batch: the fully associative size sweeps collapse
// into one LRU stack pass per (benchmark, block size), and the
// direct-mapped points share one broadcast replay per benchmark.
func Table1(s *Suite) ([]Table1Cell, error) {
	var reqs []SimRequest
	for _, cs := range smith.CacheSizes {
		for _, bs := range smith.BlockSizes {
			for _, p := range s.Items {
				reqs = append(reqs,
					SimRequest{p.NatTrace, cache.Config{SizeBytes: cs, BlockBytes: bs, Assoc: 0}},
					SimRequest{p.OptTrace, cache.Config{SizeBytes: cs, BlockBytes: bs, Assoc: 1}})
			}
		}
	}
	stats, err := s.engine().Batch(reqs)
	if err != nil {
		return nil, err
	}
	var out []Table1Cell
	i := 0
	for _, cs := range smith.CacheSizes {
		for _, bs := range smith.BlockSizes {
			target, _ := smith.MissRatio(cs, bs)
			cell := Table1Cell{CacheBytes: cs, BlockBytes: bs, Smith: target}
			var fa, dm float64
			for range s.Items {
				fa += stats[i].MissRatio()
				dm += stats[i+1].MissRatio()
				i += 2
			}
			n := float64(len(s.Items))
			cell.NaturalFA = fa / n
			cell.OptimizedDM = dm / n
			out = append(out, cell)
		}
	}
	return out, nil
}

// RenderTable1 formats Table 1 like the paper (plus measured columns).
func RenderTable1(cells []Table1Cell) string {
	t := texttable.New("Table 1. Design Target Miss Ratio (Fully Associative) vs. Measured",
		"cache", "block", "Smith", "nat-FA (meas)", "opt-DM (meas)")
	for _, c := range cells {
		t.Row(fmt.Sprintf("%dB", c.CacheBytes), fmt.Sprintf("%dB", c.BlockBytes),
			texttable.Pct(c.Smith), texttable.Pct3(c.NaturalFA), texttable.Pct3(c.OptimizedDM))
	}
	return t.String()
}

// ---------------------------------------------------------------------------
// Table 2 — Benchmark profile characteristics.

// Table2Row mirrors the paper's Table 2 (with static instructions in
// place of C source lines, which have no equivalent for IR models).
type Table2Row struct {
	Name         string
	StaticInstrs int
	Runs         int
	Instructions uint64 // dynamic instructions over all profiling runs
	Control      uint64 // dynamic control transfers other than call/return
	InputDesc    string
}

// Table2 reports the profiling characteristics of every benchmark.
func Table2(s *Suite) []Table2Row {
	var out []Table2Row
	for _, p := range s.Items {
		w := p.Opt.OrigWeights
		out = append(out, Table2Row{
			Name:         p.Name(),
			StaticInstrs: p.Bench.Prog.Bytes() / 4,
			Runs:         w.Runs,
			Instructions: w.DynInstrs,
			Control:      w.DynBranches,
			InputDesc:    p.Bench.Params.InputDesc,
		})
	}
	return out
}

// RenderTable2 formats Table 2.
func RenderTable2(rows []Table2Row) string {
	t := texttable.New("Table 2. Profile Results",
		"name", "static instrs", "runs", "instructions", "control", "input description")
	for _, r := range rows {
		t.Row(r.Name, r.StaticInstrs, r.Runs,
			texttable.Mega(r.Instructions), texttable.Mega(r.Control), r.InputDesc)
	}
	return t.String()
}

// ---------------------------------------------------------------------------
// Table 3 — Inline expansion results.

// Table3Row mirrors the paper's Table 3.
type Table3Row struct {
	Name string
	// CodeInc is the static code size increase from inlining.
	CodeInc float64
	// CallDec is the fraction of dynamic calls eliminated.
	CallDec float64
	// InstrsPerCall is dynamic instructions per call after inlining.
	InstrsPerCall float64
	// TransfersPerCall is control transfers per call after inlining.
	TransfersPerCall float64
}

// Table3 reports inline expansion effectiveness.
func Table3(s *Suite) []Table3Row {
	var out []Table3Row
	for _, p := range s.Items {
		out = append(out, Table3Row{
			Name:             p.Name(),
			CodeInc:          p.Opt.InlineReport.CodeIncrease(),
			CallDec:          p.Opt.CallDecrease(),
			InstrsPerCall:    p.Opt.InstrsPerCall(),
			TransfersPerCall: p.Opt.TransfersPerCall(),
		})
	}
	return out
}

// RenderTable3 formats Table 3.
func RenderTable3(rows []Table3Row) string {
	t := texttable.New("Table 3. Inline Expansion Results",
		"name", "code inc", "call dec", "DI's per call", "CT's per call")
	for _, r := range rows {
		t.Row(r.Name, texttable.Pct(r.CodeInc), texttable.Pct(r.CallDec),
			fmt.Sprintf("%.0f", r.InstrsPerCall), fmt.Sprintf("%.0f", r.TransfersPerCall))
	}
	return t.String()
}

// ---------------------------------------------------------------------------
// Table 4 — Trace selection results.

// Table4Row mirrors the paper's Table 4.
type Table4Row struct {
	Name        string
	Neutral     float64
	Undesirable float64
	Desirable   float64
	TraceLength float64
}

// Table4 reports trace selection quality.
func Table4(s *Suite) []Table4Row {
	var out []Table4Row
	for _, p := range s.Items {
		st := p.Opt.TraceStats
		out = append(out, Table4Row{
			Name:        p.Name(),
			Neutral:     st.NeutralFrac(),
			Undesirable: st.UndesirableFrac(),
			Desirable:   st.DesirableFrac(),
			TraceLength: st.AvgTraceLength(),
		})
	}
	return out
}

// RenderTable4 formats Table 4.
func RenderTable4(rows []Table4Row) string {
	t := texttable.New("Table 4. Trace Selection Results",
		"name", "neutral", "undesirable", "desirable", "trace length")
	for _, r := range rows {
		t.Row(r.Name, texttable.Pct(r.Neutral), texttable.Pct(r.Undesirable),
			texttable.Pct(r.Desirable), fmt.Sprintf("%.1f", r.TraceLength))
	}
	return t.String()
}

// ---------------------------------------------------------------------------
// Table 5 — Static and dynamic code sizes.

// Table5Row mirrors the paper's Table 5.
type Table5Row struct {
	Name string
	// TotalStaticBytes is the machine code size after the pipeline
	// (inlined program).
	TotalStaticBytes int
	// EffectiveStaticBytes is the code with non-trivial execution
	// count.
	EffectiveStaticBytes int
	// DynamicAccesses is the evaluation trace length.
	DynamicAccesses uint64
}

// Table5 reports code size accounting.
func Table5(s *Suite) []Table5Row {
	var out []Table5Row
	for _, p := range s.Items {
		out = append(out, Table5Row{
			Name:                 p.Name(),
			TotalStaticBytes:     p.Opt.TotalBytes,
			EffectiveStaticBytes: p.Opt.EffectiveBytes,
			DynamicAccesses:      p.OptTrace.Instrs,
		})
	}
	return out
}

// RenderTable5 formats Table 5.
func RenderTable5(rows []Table5Row) string {
	t := texttable.New("Table 5. Static and Dynamic Code Sizes of Benchmarks",
		"name", "total static bytes", "effective static bytes", "dynamic accesses")
	for _, r := range rows {
		t.Row(r.Name, texttable.KB(r.TotalStaticBytes),
			texttable.KB(r.EffectiveStaticBytes), texttable.Mega(r.DynamicAccesses))
	}
	return t.String()
}

// ---------------------------------------------------------------------------
// Table 6 — The effect of varying cache size (64B blocks, direct-mapped).

// Table6CacheSizes are the paper's cache sizes, largest first.
var Table6CacheSizes = []int{8192, 4096, 2048, 1024, 512}

// Table6Row holds one benchmark's miss/traffic across cache sizes.
type Table6Row struct {
	Name    string
	Results map[int]CacheResult // keyed by cache size
}

// Table6 sweeps cache size at a fixed 64-byte block size over the
// optimized layout. One engine batch: the direct-mapped sizes share a
// single broadcast replay per benchmark.
func Table6(s *Suite) ([]Table6Row, error) {
	var reqs []SimRequest
	for _, p := range s.Items {
		for _, cs := range Table6CacheSizes {
			reqs = append(reqs, SimRequest{p.OptTrace, cache.Config{SizeBytes: cs, BlockBytes: 64, Assoc: 1}})
		}
	}
	stats, err := s.engine().Batch(reqs)
	if err != nil {
		return nil, err
	}
	var out []Table6Row
	i := 0
	for _, p := range s.Items {
		row := Table6Row{Name: p.Name(), Results: make(map[int]CacheResult)}
		for _, cs := range Table6CacheSizes {
			row.Results[cs] = CacheResult{Miss: stats[i].MissRatio(), Traffic: stats[i].TrafficRatio()}
			i++
		}
		out = append(out, row)
	}
	return out, nil
}

// RenderTable6 formats Table 6.
func RenderTable6(rows []Table6Row) string {
	headers := []string{"name"}
	for _, cs := range Table6CacheSizes {
		label := fmt.Sprintf("%gK", float64(cs)/1024)
		headers = append(headers, label+" miss", label+" traffic")
	}
	t := texttable.New("Table 6. The Effect of Varying Cache Size (64B blocks, direct-mapped, optimized layout)", headers...)
	for _, r := range rows {
		cells := []any{r.Name}
		for _, cs := range Table6CacheSizes {
			cells = append(cells, texttable.Pct3(r.Results[cs].Miss), texttable.Pct(r.Results[cs].Traffic))
		}
		t.Row(cells...)
	}
	// Suite averages, as quoted in the paper's text.
	cells := []any{"average"}
	for _, cs := range Table6CacheSizes {
		var m, tr float64
		for _, r := range rows {
			m += r.Results[cs].Miss
			tr += r.Results[cs].Traffic
		}
		n := float64(len(rows))
		cells = append(cells, texttable.Pct3(m/n), texttable.Pct(tr/n))
	}
	t.Row(cells...)
	return t.String()
}

// ---------------------------------------------------------------------------
// Table 7 — The effect of varying block size (2KB cache, direct-mapped).

// Table7BlockSizes are the paper's block sizes.
var Table7BlockSizes = []int{16, 32, 64, 128}

// Table7Row holds one benchmark's miss/traffic across block sizes.
type Table7Row struct {
	Name    string
	Results map[int]CacheResult // keyed by block size
}

// Table7 sweeps block size at a fixed 2048-byte cache over the
// optimized layout, batched into one broadcast replay per benchmark.
func Table7(s *Suite) ([]Table7Row, error) {
	var reqs []SimRequest
	for _, p := range s.Items {
		for _, bs := range Table7BlockSizes {
			reqs = append(reqs, SimRequest{p.OptTrace, cache.Config{SizeBytes: 2048, BlockBytes: bs, Assoc: 1}})
		}
	}
	stats, err := s.engine().Batch(reqs)
	if err != nil {
		return nil, err
	}
	var out []Table7Row
	i := 0
	for _, p := range s.Items {
		row := Table7Row{Name: p.Name(), Results: make(map[int]CacheResult)}
		for _, bs := range Table7BlockSizes {
			row.Results[bs] = CacheResult{Miss: stats[i].MissRatio(), Traffic: stats[i].TrafficRatio()}
			i++
		}
		out = append(out, row)
	}
	return out, nil
}

// RenderTable7 formats Table 7.
func RenderTable7(rows []Table7Row) string {
	headers := []string{"name"}
	for _, bs := range Table7BlockSizes {
		headers = append(headers, fmt.Sprintf("%dB miss", bs), fmt.Sprintf("%dB traffic", bs))
	}
	t := texttable.New("Table 7. The Effect of Varying the Block Size (2KB cache, direct-mapped, optimized layout)", headers...)
	for _, r := range rows {
		cells := []any{r.Name}
		for _, bs := range Table7BlockSizes {
			cells = append(cells, texttable.Pct3(r.Results[bs].Miss), texttable.Pct(r.Results[bs].Traffic))
		}
		t.Row(cells...)
	}
	return t.String()
}

// ---------------------------------------------------------------------------
// Table 8 — Schemes to reduce the memory traffic ratio.

// Table8Row mirrors the paper's Table 8: block sectoring (8B sectors)
// and partial loading, both on a 2KB/64B direct-mapped cache.
type Table8Row struct {
	Name         string
	Sector       CacheResult
	Partial      CacheResult
	PartialFetch float64 // avg.fetch, in 4-byte entities
	PartialExec  float64 // avg.exec, consecutive instructions used
}

// Table8 measures sectoring and partial loading, batched so both
// organisations share one broadcast replay per benchmark.
func Table8(s *Suite) ([]Table8Row, error) {
	var reqs []SimRequest
	for _, p := range s.Items {
		reqs = append(reqs,
			SimRequest{p.OptTrace, cache.Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 1, SectorBytes: 8}},
			SimRequest{p.OptTrace, cache.Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 1, PartialLoad: true}})
	}
	stats, err := s.engine().Batch(reqs)
	if err != nil {
		return nil, err
	}
	var out []Table8Row
	for i, p := range s.Items {
		sec, par := stats[2*i], stats[2*i+1]
		out = append(out, Table8Row{
			Name:         p.Name(),
			Sector:       CacheResult{Miss: sec.MissRatio(), Traffic: sec.TrafficRatio()},
			Partial:      CacheResult{Miss: par.MissRatio(), Traffic: par.TrafficRatio()},
			PartialFetch: par.AvgFetchWords(),
			PartialExec:  par.AvgExecWords(),
		})
	}
	return out, nil
}

// RenderTable8 formats Table 8.
func RenderTable8(rows []Table8Row) string {
	t := texttable.New("Table 8. Schemes to Reduce the Memory Traffic Ratio (2KB/64B direct-mapped)",
		"name", "sector miss", "sector traffic", "partial miss", "partial traffic", "avg.fetch", "avg.exec")
	for _, r := range rows {
		t.Row(r.Name,
			texttable.Pct3(r.Sector.Miss), texttable.Pct(r.Sector.Traffic),
			texttable.Pct3(r.Partial.Miss), texttable.Pct(r.Partial.Traffic),
			fmt.Sprintf("%.1f", r.PartialFetch), fmt.Sprintf("%.1f", r.PartialExec))
	}
	return t.String()
}
