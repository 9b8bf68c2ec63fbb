package main

import (
	"slices"

	"impact/internal/core/funclayout"
	"impact/internal/core/globallayout"
	"impact/internal/core/inline"
	"impact/internal/core/traceselect"
	"impact/internal/layout"
	"impact/internal/profile"
)

// frontEndWork counts what the layer-by-layer pipeline run did.
type frontEndWork struct {
	profInstrs, evalInstrs uint64
	sites                  int
}

// runFrontEnd runs the paper's pipeline once per prepared program as
// separate calls into each layer (profile, inline, re-profile, trace
// selection, function layout, global layout, evaluation trace), so
// each layer gets its own span. The result must reproduce the trace
// the prepared suite got from core.Optimize.
func runFrontEnd(c *runCtx) error {
	end := c.rec.begin("frontend")
	defer end()
	fe := &c.frontEnd
	for _, p := range c.suite.Items {
		b := p.Bench
		pcfg := profile.Config{Seeds: b.ProfileSeeds, Interp: b.InterpConfig()}

		e := c.rec.begin("profile")
		w0, _, err := profile.Profile(b.Prog, pcfg)
		e()
		if err != nil {
			return err
		}
		e = c.rec.begin("inline")
		prog, rep, err := inline.Expand(b.Prog, w0, inline.DefaultConfig())
		e()
		if err != nil {
			return err
		}
		e = c.rec.begin("profile")
		w, _, err := profile.Profile(prog, pcfg)
		e()
		if err != nil {
			return err
		}
		fe.profInstrs += w0.DynInstrs + w.DynInstrs
		fe.sites += rep.SitesInlined

		e = c.rec.begin("traceselect")
		sels := make([]traceselect.Result, len(prog.Funcs))
		for _, f := range prog.Funcs {
			sels[f.ID] = traceselect.Select(f, &w.Funcs[f.ID], traceselect.DefaultMinProb)
		}
		e()
		e = c.rec.begin("funclayout")
		orders := make([]funclayout.Order, len(prog.Funcs))
		for _, f := range prog.Funcs {
			orders[f.ID] = funclayout.Layout(f, &w.Funcs[f.ID], &sels[f.ID])
		}
		e()
		e = c.rec.begin("globallayout")
		global := globallayout.Layout(prog, w)
		e()
		e = c.rec.begin("compose")
		lay, err := layout.FromPlacement(prog, splitCold(global, orders))
		e()
		if err != nil {
			return err
		}
		e = c.rec.begin("evaltrace")
		tr, run, err := layout.Trace(lay, b.EvalSeed, b.EvalConfig())
		e()
		if err != nil {
			return err
		}
		fe.evalInstrs += tr.Instrs
		c.check(run.Completed, "%s: front-end evaluation run hit the instruction cap", p.Name())
		c.check(tr.Instrs == p.OptTrace.Instrs && slices.Equal(tr.Runs, p.OptTrace.Runs),
			"%s: layer-by-layer pipeline trace differs from core.Optimize's", p.Name())
	}
	return nil
}

// splitCold composes the full pipeline's placement: the effective
// blocks of every function in global order, then the non-executed
// blocks in the same order.
func splitCold(global globallayout.Order, orders []funclayout.Order) layout.Placement {
	var pl layout.Placement
	for _, f := range global.Funcs {
		o := orders[f]
		for _, b := range o.Blocks[:o.EffectiveBlocks] {
			pl.Order = append(pl.Order, layout.BlockRef{F: f, B: b})
		}
	}
	for _, f := range global.Funcs {
		o := orders[f]
		for _, b := range o.Blocks[o.EffectiveBlocks:] {
			pl.Order = append(pl.Order, layout.BlockRef{F: f, B: b})
		}
	}
	return pl
}

// perSecond returns n/s, or 0 when nothing was timed.
func perSecond(n, s float64) float64 {
	if s <= 0 {
		return 0
	}
	return n / s
}

// collectLayers derives the per-layer metrics of a traced run from its
// span tree, the engine's registry and the CPU profile.
func (c *runCtx) collectLayers(cpuProfile []byte) error {
	self := selfSeconds(c.rec.spans)
	snap := c.reg.Snapshot()
	L := c.layers

	L["workload.build_s"] = self["workload.build"]
	L["profile.busy_s"] = self["profile"]
	L["profile.minstrs"] = float64(c.frontEnd.profInstrs) / 1e6
	L["profile.minstr_per_s"] = perSecond(L["profile.minstrs"], L["profile.busy_s"])
	L["inline.busy_s"] = self["inline"]
	L["inline.sites"] = float64(c.frontEnd.sites)
	L["layoutpass.busy_s"] = self["traceselect"] + self["funclayout"] + self["globallayout"] + self["compose"]
	L["evaltrace.busy_s"] = self["evaltrace"]
	L["evaltrace.minstr_per_s"] = perSecond(float64(c.frontEnd.evalInstrs)/1e6, L["evaltrace.busy_s"])

	var fileBytes, fileInstrs float64
	for _, f := range c.files {
		fileBytes += float64(f.bytes)
		fileInstrs += float64(f.tr.Instrs)
	}
	L["memtrace.write_s"] = self["memtrace.write"]
	L["memtrace.read_s"] = self["memtrace.read"]
	L["memtrace.bytes_per_instr"] = perSecond(fileBytes, fileInstrs)

	own := self["sim.replay"] + self["sim.engine"]
	L["sim.busy_s"] = own + float64(snap.Spans["sweep/task"].TotalNS)/1e9
	L["sim.maccess_per_s"] = perSecond(float64(c.ownSimAccesses)/1e6, own)
	L["sweep.trace_passes"] = float64(snap.Counters["sweep.trace_passes"])
	L["sweep.sharded_sims"] = float64(snap.Counters["sweep.sharded_sims"])
	L["sweep.stack_sharded"] = float64(snap.Counters["sweep.stack_sharded"])
	run, memo := float64(snap.Counters["sweep.sims_run"]), float64(snap.Counters["sweep.sims_memoized"])
	L["sweep.memo_hit_ratio"] = perSecond(memo, run+memo)

	for _, name := range reproduceTables {
		L["table."+name+"_s"] = self["table."+name]
	}

	L["analysis.static_s"] = self["analysis.static"]
	L["analysis.pages_s"] = self["analysis.pages"]
	var upper, measured float64
	for _, r := range c.bounds {
		upper += float64(r.Upper)
		measured += float64(r.Measured)
	}
	L["analysis.bound_gap"] = perSecond(upper, measured)

	var evals, accepted, wins float64
	for _, r := range c.searched {
		evals += float64(r.Evals)
		accepted += float64(r.Accepted)
		if r.Won {
			wins++
		}
	}
	L["search.busy_s"] = self["search"]
	L["search.evals_per_s"] = perSecond(evals, L["search.busy_s"])
	L["search.accept_ratio"] = perSecond(accepted, evals)
	L["search.wins"] = wins

	shares, _, err := leafShares(cpuProfile)
	if err != nil {
		return err
	}
	for pkg, v := range shares {
		L["cpu_share."+pkg] = v
	}
	return nil
}

// layerMetrics lists every per-layer metric a traced run reports, with
// its unit, in BENCHMARK.json order.
func layerMetrics() []metricDef {
	defs := []metricDef{
		{"workload.build_s", "s"},
		{"profile.busy_s", "s"}, {"profile.minstrs", "Minstr"}, {"profile.minstr_per_s", "Minstr/s"},
		{"inline.busy_s", "s"}, {"inline.sites", "count"},
		{"layoutpass.busy_s", "s"},
		{"evaltrace.busy_s", "s"}, {"evaltrace.minstr_per_s", "Minstr/s"},
		{"memtrace.write_s", "s"}, {"memtrace.read_s", "s"}, {"memtrace.bytes_per_instr", "B/instr"},
		{"sim.busy_s", "s"}, {"sim.maccess_per_s", "Maccess/s"},
		{"sweep.trace_passes", "count"}, {"sweep.sharded_sims", "count"}, {"sweep.stack_sharded", "count"},
		{"sweep.memo_hit_ratio", "ratio"},
	}
	for _, name := range reproduceTables {
		defs = append(defs, metricDef{"table." + name + "_s", "s"})
	}
	defs = append(defs,
		metricDef{"analysis.static_s", "s"}, metricDef{"analysis.pages_s", "s"}, metricDef{"analysis.bound_gap", "ratio"},
		metricDef{"search.busy_s", "s"}, metricDef{"search.evals_per_s", "1/s"},
		metricDef{"search.accept_ratio", "ratio"}, metricDef{"search.wins", "count"},
	)
	for _, phase := range []string{"setup", "run"} {
		defs = append(defs,
			metricDef{"go." + phase + ".alloc_mb", "MB"},
			metricDef{"go." + phase + ".gc_cpu_fraction", "ratio"})
	}
	for _, pkg := range cpuPackages {
		defs = append(defs, metricDef{"cpu_share." + pkg, "ratio"})
	}
	return append(defs, metricDef{"trace_overhead_ratio", "ratio"})
}
