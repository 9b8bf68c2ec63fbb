package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"impact/internal/cache"
	"impact/internal/cache/sweep"
	"impact/internal/experiments"
	"impact/internal/memtrace"
	"impact/internal/obs"
	"impact/internal/paging"
	"impact/internal/search"
	"impact/internal/smith"
)

// spec is one workload: a suite scale and three phases. setup and run
// are timed as setup_s and run_s; checks verify the outputs after the
// timed phases.
type spec struct {
	scale  float64
	setup  func(*runCtx) error
	run    func(*runCtx) error
	checks func(*runCtx) error
}

// The workloads, and why each was chosen:
//
//   - reproduce: what `icexp -ablations -extensions` emits, the
//     reproduction's unit of work. Five tables re-run the compiler
//     pipeline, so the interpreter and profiler dominate; analysis and
//     search do nothing.
//   - simulate: the measurement-only tables plus icsim-style replays
//     of trace files written in set-up, at a longer trace length. No
//     pipeline runs after set-up: the cache, sweep, engine and memtrace
//     layers do the work. It is the bypass workload for pipeline
//     changes and the only one that reads trace files.
//   - analyze: the static bound checks and the layout search of
//     `icexp -analyze -search` at a short trace length. The analysis
//     and search layers dominate; cost follows the search budget, not
//     the trace length.
var workloads = map[string]spec{
	"reproduce": {scale: 0.1, setup: (*runCtx).prepare, run: runReproduce, checks: checkTable6},
	"simulate":  {scale: 1.0, setup: setupSimulate, run: runSimulate, checks: checkSimulate},
	"analyze":   {scale: 0.05, setup: (*runCtx).prepare, run: runAnalyze, checks: checkAnalyze},
}

// pagingGeom is the paging geometry `icexp` uses by default for E2
// and the search's page objective.
var pagingGeom = paging.Config{PageBytes: 4096, Frames: 8}

// tables maps every table, ablation and extension `icexp -ablations
// -extensions` emits to the calls that produce its text.
var tables = map[string]func(c *runCtx) (string, error){
	"table1": func(c *runCtx) (string, error) {
		cells, err := experiments.Table1(c.suite)
		return experiments.RenderTable1(cells), err
	},
	"table2": func(c *runCtx) (string, error) {
		return experiments.RenderTable2(experiments.Table2(c.suite)), nil
	},
	"table3": func(c *runCtx) (string, error) {
		return experiments.RenderTable3(experiments.Table3(c.suite)), nil
	},
	"table4": func(c *runCtx) (string, error) {
		return experiments.RenderTable4(experiments.Table4(c.suite)), nil
	},
	"table5": func(c *runCtx) (string, error) {
		return experiments.RenderTable5(experiments.Table5(c.suite)), nil
	},
	"table6": func(c *runCtx) (string, error) {
		rows, err := experiments.Table6(c.suite)
		c.table6 = rows
		return experiments.RenderTable6(rows), err
	},
	"table7": func(c *runCtx) (string, error) {
		rows, err := experiments.Table7(c.suite)
		return experiments.RenderTable7(rows), err
	},
	"table8": func(c *runCtx) (string, error) {
		rows, err := experiments.Table8(c.suite)
		return experiments.RenderTable8(rows), err
	},
	"table9": func(c *runCtx) (string, error) {
		rows, err := experiments.Table9(c.suite)
		return experiments.RenderTable9(rows), err
	},
	"ablation-layout": func(c *runCtx) (string, error) {
		a, err := experiments.AblationLayout(c.suite)
		return experiments.RenderAblationLayout(a), err
	},
	"ablation-assoc": func(c *runCtx) (string, error) {
		a, err := experiments.AblationAssoc(c.suite)
		return experiments.RenderAblationAssoc(a), err
	},
	"ablation-minprob": func(c *runCtx) (string, error) {
		a, err := experiments.AblationMinProb(c.suite)
		return experiments.RenderAblationMinProb(a), err
	},
	"ablation-replacement": func(c *runCtx) (string, error) {
		a, err := experiments.AblationReplacement(c.suite)
		return experiments.RenderAblationReplacement(a), err
	},
	"ablation-globalalgo": func(c *runCtx) (string, error) {
		a, err := experiments.AblationGlobalAlgo(c.suite)
		return experiments.RenderAblationGlobalAlgo(a), err
	},
	"ext-timing": func(c *runCtx) (string, error) {
		e, err := experiments.ExtTiming(c.suite)
		return experiments.RenderExtTiming(e), err
	},
	"ext-paging": func(c *runCtx) (string, error) {
		e, err := experiments.ExtPaging(c.suite, pagingGeom)
		return experiments.RenderExtPaging(pagingGeom, e), err
	},
	"ext-prefetch": func(c *runCtx) (string, error) {
		e, err := experiments.ExtPrefetch(c.suite)
		return experiments.RenderExtPrefetch(e), err
	},
	"ext-hierarchy": func(c *runCtx) (string, error) {
		e, err := experiments.ExtHierarchy(c.suite)
		return experiments.RenderExtHierarchy(e), err
	},
	// E5 builds its own fixed extended suite: it ignores the seed.
	"ext-extended": func(c *runCtx) (string, error) {
		e, err := experiments.ExtExtendedSuite(c.scale)
		return experiments.RenderExtExtendedSuite(e), err
	},
}

// reproduceTables is icexp's emission order with -ablations
// -extensions; simulateTables are the ones that only measure.
var (
	reproduceTables = []string{
		"table1", "table2", "table3", "table4", "table5", "table6", "table7", "table8", "table9",
		"ablation-layout", "ablation-assoc", "ablation-minprob", "ablation-replacement", "ablation-globalalgo",
		"ext-timing", "ext-paging", "ext-prefetch", "ext-hierarchy", "ext-extended",
	}
	simulateTables = []string{
		"table1", "table6", "table7", "table8", "ablation-assoc", "ablation-replacement",
		"ext-timing", "ext-paging", "ext-prefetch", "ext-hierarchy",
	}
)

func (c *runCtx) emit(names []string) error {
	for _, n := range names {
		if err := c.table(n, func() (string, error) { return tables[n](c) }); err != nil {
			return err
		}
	}
	return nil
}

func runReproduce(c *runCtx) error { return c.emit(reproduceTables) }

// checkTable6 replays every optimized trace through the reference
// direct-mapped cache at 2KB/64B: the miss ratio must equal Table 6's,
// and the suite mean is miss_pct.
func checkTable6(c *runCtx) error {
	var sum float64
	for i, p := range c.suite.Items {
		m, a := refDirectMapped(p.OptTrace, 2048, 64)
		ratio := float64(m) / float64(a)
		sum += ratio
		got := c.table6[i].Results[2048].Miss
		c.check(c.table6[i].Name == p.Name() && got == ratio,
			"%s: Table 6 2KB miss ratio %v, reference replay %v", p.Name(), got, ratio)
	}
	c.rep.MissPct = 100 * sum / float64(len(c.suite.Items))
	return nil
}

// traceFile is one evaluation trace written in set-up and the stats
// its replay produced.
type traceFile struct {
	path  string
	tr    *memtrace.Trace
	bytes int64
	lone  cache.Stats
	sizes []cache.Stats
}

// The file replays use one lone configuration (a stack-eligible
// 2-way cache, which icsim streams through the banded stack pass on
// two or more cores) and one fully associative size sweep (one
// streaming stack pass).
var (
	loneConfig    = cache.Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 2}
	sweepTemplate = cache.Config{BlockBytes: 64, Assoc: 0}
)

func setupSimulate(c *runCtx) error {
	if err := c.prepare(); err != nil {
		return err
	}
	end := c.rec.begin("memtrace.write")
	defer end()
	for _, p := range c.suite.Items {
		for _, t := range []struct {
			kind string
			tr   *memtrace.Trace
		}{{"opt", p.OptTrace}, {"nat", p.NatTrace}} {
			path := filepath.Join(c.tmpDir, p.Name()+"-"+t.kind+".itr")
			n, err := writeTrace(path, t.tr)
			if err != nil {
				return err
			}
			c.files = append(c.files, traceFile{path: path, tr: t.tr, bytes: n})
		}
	}
	return nil
}

// writeTrace streams tr into a new trace file and returns its size.
func writeTrace(path string, tr *memtrace.Trace) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := memtrace.NewWriter(f)
	tr.Replay(w)
	if err := w.Close(); err != nil {
		f.Close()
		return 0, fmt.Errorf("writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("writing %s: %w", path, err)
	}
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func runSimulate(c *runCtx) error {
	if err := c.emit(simulateTables); err != nil {
		return err
	}
	for i := range c.files {
		f := &c.files[i]
		end := c.rec.begin("sim.replay")
		var err error
		f.lone, err = replayLone(f.path, loneConfig, c.workers, c.reg)
		if err == nil {
			f.sizes, err = replaySweep(f.path, sweepTemplate, smith.CacheSizes)
		}
		end()
		if err != nil {
			return err
		}
		c.ownSimAccesses += 2 * f.tr.Instrs
	}
	return nil
}

// openTrace opens a trace file for streaming.
func openTrace(path string) (*os.File, *memtrace.Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	rd, err := memtrace.NewReader(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, rd, nil
}

// replayLone streams a trace file into one configuration the way icsim
// does: through the banded stack pass when the organisation allows it
// and two or more workers are available, else the plain simulator.
func replayLone(path string, cfg cache.Config, workers int, reg *obs.Registry) (cache.Stats, error) {
	f, rd, err := openTrace(path)
	if err != nil {
		return cache.Stats{}, err
	}
	defer f.Close()
	if workers >= 2 && sweep.Eligible(cfg) {
		block, sets := sweep.Geometry(cfg)
		z, err := sweep.NewShardStream(block, sets, workers, reg)
		if err != nil {
			return cache.Stats{}, err
		}
		if err := rd.Replay(z); err != nil {
			return cache.Stats{}, err
		}
		return z.Pass().Stats(cfg)
	}
	sim, err := cache.NewSinkSimulator(cfg)
	if err != nil {
		return cache.Stats{}, err
	}
	if err := rd.Replay(sim); err != nil {
		return cache.Stats{}, err
	}
	return sim.Stats()[0], nil
}

// replaySweep streams a trace file into a size sweep the way icsim
// -sizes does: one stack pass when the template allows it, else one
// fan-out replay.
func replaySweep(path string, template cache.Config, sizes []int) ([]cache.Stats, error) {
	f, rd, err := openTrace(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	z, cfgs, err := sweep.NewSizeStream(template, sizes)
	if err != nil {
		return nil, err
	}
	if z != nil {
		if err := rd.Replay(z); err != nil {
			return nil, err
		}
		return z.Results()
	}
	sim, err := cache.NewSinkSimulator(cfgs...)
	if err != nil {
		return nil, err
	}
	if err := rd.Replay(sim); err != nil {
		return nil, err
	}
	return sim.Stats(), nil
}

// checkSimulate adds to the Table 6 check: every trace file decodes to
// the in-memory trace's runs and instructions, and its replay stats
// equal a fresh in-memory engine's for the same configurations.
func checkSimulate(c *runCtx) error {
	if err := checkTable6(c); err != nil {
		return err
	}
	eng := experiments.NewEngine()
	eng.Configure(experiments.EngineConfig{Workers: c.workers})
	for _, f := range c.files {
		end := c.rec.begin("memtrace.read")
		var count memtrace.RunCount
		fh, rd, err := openTrace(f.path)
		if err == nil {
			err = rd.Replay(&count)
			fh.Close()
		}
		end()
		if err != nil {
			return err
		}
		c.check(count.Instrs == f.tr.Instrs && count.Runs == len(f.tr.Runs),
			"%s: file holds %d runs/%d instrs, memory %d/%d", f.path, count.Runs, count.Instrs, len(f.tr.Runs), f.tr.Instrs)

		end = c.rec.begin("sim.engine")
		lone, err := eng.Simulate(loneConfig, f.tr)
		var sizes []cache.Stats
		if err == nil {
			sizes, err = eng.SweepSizes(f.tr, sweepTemplate, smith.CacheSizes)
		}
		end()
		if err != nil {
			return err
		}
		c.ownSimAccesses += 2 * f.tr.Instrs
		c.check(lone == f.lone, "%s: file replay %+v, engine %+v", f.path, f.lone, lone)
		c.check(slices.Equal(sizes, f.sizes), "%s: file size sweep differs from engine", f.path)
		if err := os.Remove(f.path); err != nil {
			return err
		}
	}
	return nil
}

// searchGeom is the cache geometry `icexp -search` prices layouts at.
// searchBudget is a third of the search's default candidate budget, so
// that one cold run takes seconds, not tens of seconds.
var (
	searchGeom   = cache.Config{SizeBytes: 512, BlockBytes: 64, Assoc: 1}
	searchBudget = search.DefaultBudget / 3
)

func runAnalyze(c *runCtx) error {
	if err := c.table("analyze", func() (string, error) {
		end := c.rec.begin("analysis.static")
		rows, err := experiments.BoundCheck(c.suite)
		end()
		c.bounds = rows
		return experiments.RenderBoundCheck(c.suite, rows), err
	}); err != nil {
		return err
	}
	if err := c.table("analyze-pages", func() (string, error) {
		end := c.rec.begin("analysis.pages")
		rows, err := experiments.PageBoundCheck(c.suite)
		end()
		c.pages = rows
		return experiments.RenderPageBoundCheck(c.suite, rows), err
	}); err != nil {
		return err
	}
	return c.table("search", func() (string, error) {
		pcfg := pagingGeom
		end := c.rec.begin("search")
		rows, err := experiments.SearchCompare(c.suite, searchGeom, search.Config{
			Seed: 1, Budget: searchBudget, Workers: c.workers, Obs: c.reg, Paging: &pcfg,
		})
		end()
		c.searched = rows
		return experiments.RenderSearchCompare(searchGeom, &pcfg, rows), err
	})
}

// checkAnalyze requires every cache and page bound bracket to hold,
// the greedy miss ratio the search started from to match the reference
// replay, and no adopted layout to measure worse than greedy. miss_pct
// is the suite mean of the adopted layouts' miss ratios.
func checkAnalyze(c *runCtx) error {
	for _, r := range c.bounds {
		c.check(r.OK(), "%s %dB/%dB: bound bracket [%d, %d] misses measured %d",
			r.Name, r.CacheBytes, r.BlockBytes, r.Lower, r.Upper, r.Measured)
	}
	for _, r := range c.pages {
		c.check(r.OK(), "%s %dB x %d frames: page bound bracket [%d, %d] faults measured %d",
			r.Name, r.PageBytes, r.Frames, r.Lower, r.Upper, r.Measured)
	}
	var sum float64
	for i, p := range c.suite.Items {
		r := c.searched[i]
		m, a := refDirectMapped(p.OptTrace, searchGeom.SizeBytes, searchGeom.BlockBytes)
		ref := float64(m) / float64(a)
		c.check(r.Name == p.Name() && r.GreedyMiss == ref,
			"%s: search greedy miss ratio %v, reference replay %v", p.Name(), r.GreedyMiss, ref)
		c.check(r.SearchMiss <= r.GreedyMiss,
			"%s: adopted layout misses %v > greedy %v", p.Name(), r.SearchMiss, r.GreedyMiss)
		sum += r.SearchMiss
	}
	c.rep.MissPct = 100 * sum / float64(len(c.suite.Items))
	return nil
}
