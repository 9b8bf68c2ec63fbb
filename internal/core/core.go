// Package core orchestrates the IMPACT-I instruction placement
// pipeline — the paper's primary contribution (section 3):
//
//	Step 1  Execution profiling        (internal/profile)
//	Step 2  Function inline expansion  (internal/core/inline)
//	Step 3  Trace selection            (internal/core/traceselect)
//	Step 4  Function layout            (internal/core/funclayout)
//	Step 5  Global layout              (internal/core/globallayout)
//
// Optimize runs the steps and produces the transformed program, its
// re-measured profile, and a memory layout in which sequential and
// spatial localities are maximised and cache mapping conflicts
// minimised. Each step can be disabled independently (Strategy) for
// the ablation experiments.
//
// Optimize is FrontEnd (steps 1-2) followed by BackEnd (steps 3-5).
// The front end's output, Profiled, is immutable, so variants that
// change only steps 3-5 share one front end instead of re-profiling,
// and FrontEndFrom derives the profiles of a program with the same
// control skeleton (a code-scaled copy) from it.
package core

import (
	"fmt"
	"slices"

	"impact/internal/analysis"
	"impact/internal/check"
	"impact/internal/core/funclayout"
	"impact/internal/core/globallayout"
	"impact/internal/core/inline"
	"impact/internal/core/traceselect"
	"impact/internal/interp"
	"impact/internal/ir"
	"impact/internal/layout"
	"impact/internal/memtrace"
	"impact/internal/obs"
	"impact/internal/profile"
	"impact/internal/search"
)

// Strategy selects which pipeline steps run. The zero value disables
// everything and reproduces the natural (declaration-order) layout.
type Strategy struct {
	// Inline enables step 2, function inline expansion.
	Inline bool
	// TraceLayout enables steps 3-4: trace selection and intra-
	// function trace placement.
	TraceLayout bool
	// GlobalDFS enables step 5's global function ordering; when false,
	// functions stay in declaration order.
	GlobalDFS bool
	// PettisHansen, when GlobalDFS is enabled, replaces the Appendix's
	// weighted depth-first order with Pettis & Hansen's closest-is-
	// best chain merging (PLDI 1990) — the historical follow-on to
	// this paper, provided for the A6 comparison.
	PettisHansen bool
	// SplitCold enables step 5's effective/non-executed split: the
	// non-executed parts of all functions are packed after all the
	// effective parts instead of staying inside their functions.
	SplitCold bool
}

// FullStrategy returns the paper's complete pipeline.
func FullStrategy() Strategy {
	return Strategy{Inline: true, TraceLayout: true, GlobalDFS: true, SplitCold: true}
}

// NaturalStrategy returns the all-off baseline.
func NaturalStrategy() Strategy { return Strategy{} }

// Config parameterises one pipeline run.
type Config struct {
	// ProfileSeeds are the profiling inputs (paper Table 2 "runs").
	ProfileSeeds []uint64
	// Interp configures profiling executions.
	Interp interp.Config
	// Inline configures step 2. Zero value means inline.DefaultConfig.
	Inline inline.Config
	// MinProb is the trace selection threshold; zero means the paper's
	// MIN_PROB = 0.7.
	MinProb float64
	// Strategy selects the steps; DefaultConfig uses FullStrategy.
	Strategy Strategy
	// Check selects pipeline verification (internal/check): Off skips
	// it, Warn collects diagnostics into Result.Checks, Strict
	// additionally fails the run on any error-severity diagnostic.
	Check check.Mode
	// Analysis, when non-nil, runs the static cache-behavior analyzer
	// (internal/analysis) on the final layout and stores the result in
	// Result.Analysis; its internal consistency is verified under
	// Config.Check like any pipeline stage. Nil skips the analysis.
	Analysis *analysis.Config
	// Search, when non-nil, runs the conflict-driven layout search
	// (internal/search) after the layout is composed: candidate global
	// function orders are scored by incremental re-analysis and the
	// best order replaces GlobalOrder/Layout when it tightens the
	// static miss upper bound. The searched layout is re-verified
	// under Config.Check (check.StageSearch). Nil skips the search.
	Search *search.Config
	// Pages, when non-nil, runs the static page-level analyzer
	// (analysis.AnalyzePages) on the final layout and stores the
	// result in Result.Pages; its internal consistency is verified
	// under Config.Check (check.StagePaging). Nil skips the analysis.
	Pages *analysis.PageConfig
	// Obs, when non-nil, receives per-stage spans (pipeline/profile,
	// pipeline/inline, pipeline/traceselect, pipeline/funclayout,
	// pipeline/globallayout, pipeline/compose) and work counters; nil
	// disables all instrumentation (see docs/OBSERVABILITY.md).
	Obs *obs.Registry
	// Lane attributes this run's timeline events to one tracer lane
	// (obs.Tracer); zero is the main lane. Set by the experiment
	// engine's workers so concurrent pipeline runs land on separate
	// timeline rows.
	Lane obs.Lane
	// Ledger enables the per-stage locality ledger: after each
	// pipeline stage the layout is scored (analysis.ScoreLayout) and a
	// StageSnapshot recorded in Result.Ledger.
	Ledger bool
}

// DefaultConfig returns the paper's configuration with the given
// profiling seeds.
func DefaultConfig(seeds ...uint64) Config {
	return Config{
		ProfileSeeds: seeds,
		Inline:       inline.DefaultConfig(),
		MinProb:      traceselect.DefaultMinProb,
		Strategy:     FullStrategy(),
	}
}

// Result is the outcome of a pipeline run.
type Result struct {
	// Prog is the transformed program (inlined if step 2 ran).
	Prog *ir.Program
	// Layout maps Prog's blocks to memory addresses.
	Layout *layout.Layout
	// Weights is the profile of Prog (re-measured after inlining).
	Weights *profile.Weights
	// OrigWeights is the profile of the input program.
	OrigWeights *profile.Weights

	// InlineReport describes step 2 (zero value if disabled).
	InlineReport inline.Report
	// TraceStats aggregates Table 4 metrics over all functions.
	TraceStats traceselect.Stats
	// Traces holds the per-function trace selection results.
	Traces []traceselect.Result
	// Orders holds the per-function body layouts.
	Orders []funclayout.Order
	// GlobalOrder is the function placement order.
	GlobalOrder globallayout.Order

	// EffectiveBytes is the code size of all effective regions; with
	// the full pipeline these occupy addresses [0, EffectiveBytes).
	EffectiveBytes int
	// TotalBytes is Prog's full static size.
	TotalBytes int

	// Checks holds the verifier's diagnostics (nil when Config.Check
	// is Off).
	Checks *check.Report

	// Analysis holds the static cache-behavior analysis of the final
	// layout (nil unless Config.Analysis was set).
	Analysis *analysis.Result

	// Search holds the layout search outcome (nil unless
	// Config.Search was set). When Search.Improved, GlobalOrder and
	// Layout already reflect the searched order.
	Search *search.Result

	// Pages holds the static page-level analysis of the final layout
	// (nil unless Config.Pages was set).
	Pages *analysis.PageResult

	// Ledger holds the per-stage locality ledger (nil unless
	// Config.Ledger was set).
	Ledger *Ledger
}

// Optimize runs the configured pipeline steps on p: the front end
// (profile, inline, re-profile) followed by the back end (trace
// selection, function and global layout, and the optional stages).
func Optimize(p *ir.Program, cfg Config) (*Result, error) {
	pf, err := FrontEnd(p, cfg)
	if err != nil {
		return nil, err
	}
	return BackEnd(pf, cfg)
}

// Profiled is the pipeline's front end frozen into an immutable
// artifact: the input program and its profile (step 1) and, when
// inlining ran, the inlined program and its re-measured profile (step
// 2). Steps 3-5 only read it, so any number of back-end variants —
// other MIN_PROB thresholds, layout strategies, global orderings — can
// share one artifact, concurrently, instead of re-profiling an
// unchanged program. Nothing may modify it after FrontEnd returns.
type Profiled struct {
	// Input is the program the front end profiled; InputWeights is its
	// profile.
	Input        *ir.Program
	InputWeights *profile.Weights
	// Inlined is step 2's transformed program and InlinedWeights its
	// re-measured profile; both are nil when the front end ran without
	// inlining.
	Inlined        *ir.Program
	InlinedWeights *profile.Weights
	// InlineReport describes step 2 (zero value without inlining).
	InlineReport inline.Report

	// The front-end configuration the artifact was built from; BackEnd
	// refuses a config that disagrees with it rather than re-profile.
	seeds  []uint64
	interp interp.Config
	inline inline.Config
	check  check.Mode
	// Verifier reports of the input and inline stages (nil when check
	// is Off, or for inlineChecks when the front end did not inline).
	inputChecks, inlineChecks *check.Report
	// Per-run interpreter results of the input and inlined profiling
	// passes; FrontEndFrom needs them to rule out the step cap. Nil
	// when the pass was derived rather than run, so a derived pass
	// cannot seed another derivation.
	inputRuns, inlinedRuns []interp.Result
}

// withDefaults validates cfg and fills in its zero-means-default
// fields.
func (cfg Config) withDefaults() (Config, error) {
	if len(cfg.ProfileSeeds) == 0 {
		return cfg, fmt.Errorf("core: no profiling seeds configured")
	}
	if cfg.MinProb == 0 {
		cfg.MinProb = traceselect.DefaultMinProb
	}
	if cfg.Inline == (inline.Config{}) {
		cfg.Inline = inline.DefaultConfig()
	}
	return cfg, nil
}

// verifier runs the internal/check analyzers of one pipeline stage
// under a verification mode, timing each run as a "check" child of the
// pipeline span.
type verifier struct {
	mode check.Mode
	reg  *obs.Registry
	pipe *obs.Span
}

// run verifies u and returns its report (nil when verification is
// off); in Strict mode an error-severity diagnostic is returned as an
// error.
func (v verifier) run(u *check.Unit) (*check.Report, error) {
	if v.mode == check.Off {
		return nil, nil
	}
	vs := v.pipe.Span("check")
	rep := check.Run(u, check.ForStage(u.Stage), v.reg)
	vs.End()
	if v.mode == check.Strict {
		if err := rep.Err(); err != nil {
			return nil, fmt.Errorf("core: %s stage failed verification: %w", u.Stage, err)
		}
	}
	return rep, nil
}

// FrontEnd runs steps 1-2 on p: profiling and, when cfg.Strategy.Inline
// is set, inline expansion and re-profiling of the inlined program. The
// input and inline stages are verified here, once, under cfg.Check.
// Only cfg's ProfileSeeds, Interp, Inline, Strategy.Inline, Check, Obs
// and Lane are read.
func FrontEnd(p *ir.Program, cfg Config) (*Profiled, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return frontEnd(nil, p, cfg)
}

// FrontEndFrom is FrontEnd for a program q that may share base's control
// skeleton, such as a code-scaled copy of base.Input (Table 9). Each
// profiling pass is derived from base's matching pass when
// profile.Derive proves that exact, and runs the interpreter otherwise.
// Inline decisions depend on code size, so q is always re-inlined; the
// inlined profile is derived only when the two inlined programs'
// skeletons match. The result equals FrontEnd(q, cfg) in every exported
// field and verifier report. A base built with other ProfileSeeds,
// Interp or Inline settings is an error.
func FrontEndFrom(base *Profiled, q *ir.Program, cfg Config) (*Profiled, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if base == nil {
		return nil, fmt.Errorf("core: front end given no base artifact")
	}
	if err := base.sameProfiling(cfg); err != nil {
		return nil, err
	}
	return frontEnd(base, q, cfg)
}

// frontEnd is the body of FrontEnd and FrontEndFrom; base is nil for a
// plain front end. cfg has its defaults applied.
func frontEnd(base *Profiled, p *ir.Program, cfg Config) (*Profiled, error) {
	pipe := cfg.Obs.SpanOn(cfg.Lane, "pipeline")
	defer pipe.End()
	v := verifier{mode: cfg.Check, reg: cfg.Obs, pipe: pipe}
	profCfg := profile.Config{Seeds: cfg.ProfileSeeds, Interp: cfg.Interp, Obs: cfg.Obs}
	// A plain front end has no base, and every pass runs the
	// interpreter.
	derive := base != nil
	if !derive {
		base = &Profiled{}
	}
	// profileOf measures prog's profile, deriving it from the base
	// artifact's pass (from, fromW, fromRuns) when that is exact.
	profileOf := func(prog, from *ir.Program, fromW *profile.Weights, fromRuns []interp.Result) (*profile.Weights, []interp.Result, error) {
		if derive {
			if w, err := profile.Derive(from, fromW, fromRuns, prog, cfg.Interp); err == nil {
				cfg.Obs.Counter("pipeline.profile.derived").Inc()
				return w, nil, nil
			}
			cfg.Obs.Counter("pipeline.profile.fallback").Inc()
		}
		return profile.Profile(prog, profCfg)
	}
	pf := &Profiled{
		Input:  p,
		seeds:  slices.Clone(cfg.ProfileSeeds),
		interp: cfg.Interp,
		inline: cfg.Inline,
		check:  cfg.Check,
	}

	// Step 1: execution profiling.
	sp := pipe.Span("profile")
	var err error
	pf.InputWeights, pf.inputRuns, err = profileOf(p, base.Input, base.InputWeights, base.inputRuns)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("core: profiling input program: %w", err)
	}
	pf.inputChecks, err = v.run(&check.Unit{Stage: check.StageInput, Prog: p, Weights: pf.InputWeights})
	if err != nil {
		return nil, err
	}
	if !cfg.Strategy.Inline {
		return pf, nil
	}

	// Step 2: function inline expansion.
	sp = pipe.Span("inline")
	pf.Inlined, pf.InlineReport, err = inline.Expand(p, pf.InputWeights, cfg.Inline)
	if err != nil {
		sp.End()
		return nil, fmt.Errorf("core: inline expansion: %w", err)
	}
	// Re-profile the transformed program with the same inputs;
	// IMPACT-I instead propagates weights through the transform,
	// which is equivalent but harder to verify (see DESIGN.md).
	pf.InlinedWeights, pf.inlinedRuns, err = profileOf(pf.Inlined, base.Inlined, base.InlinedWeights, base.inlinedRuns)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("core: re-profiling inlined program: %w", err)
	}
	cfg.Obs.Counter("pipeline.inline.sites_inlined").Add(uint64(pf.InlineReport.SitesInlined))
	pf.inlineChecks, err = v.run(&check.Unit{
		Stage: check.StageInline, Prog: pf.Inlined, Weights: pf.InlinedWeights,
		Before: p, BeforeWeights: pf.InputWeights, Inline: &pf.InlineReport,
	})
	if err != nil {
		return nil, err
	}
	return pf, nil
}

// sameProfiling reports whether pf was profiled under cfg's (defaults
// applied) ProfileSeeds, Interp and Inline settings; the error says
// which one disagrees.
func (pf *Profiled) sameProfiling(cfg Config) error {
	switch {
	case !slices.Equal(cfg.ProfileSeeds, pf.seeds):
		return fmt.Errorf("core: config profile seeds %v differ from the front end's %v", cfg.ProfileSeeds, pf.seeds)
	case cfg.Interp != pf.interp:
		return fmt.Errorf("core: config interp %+v differs from the front end's %+v", cfg.Interp, pf.interp)
	case cfg.Inline != pf.inline:
		return fmt.Errorf("core: config inline %+v differs from the front end's %+v", cfg.Inline, pf.inline)
	}
	return nil
}

// accepts reports whether a back end configured by cfg (defaults
// applied) can run on pf; the error says which front-end setting
// disagrees.
func (pf *Profiled) accepts(cfg Config) error {
	if pf == nil {
		return fmt.Errorf("core: back end given no front end")
	}
	if err := pf.sameProfiling(cfg); err != nil {
		return err
	}
	switch {
	case cfg.Strategy.Inline && pf.Inlined == nil:
		return fmt.Errorf("core: config enables inlining but the front end did not inline")
	case cfg.Check > pf.check:
		return fmt.Errorf("core: config check mode %v is stricter than the front end's %v", cfg.Check, pf.check)
	}
	return nil
}

// BackEnd runs steps 3-5 and the optional search, analysis and paging
// stages on a front-end artifact. With cfg.Strategy.Inline it lays out
// pf's inlined program, otherwise its input program. It never
// profiles: a cfg whose front-end settings (ProfileSeeds, Interp,
// Inline) differ from pf's, that asks for inlining pf did not do, or
// that asks for stricter verification than pf had, is an error.
func BackEnd(pf *Profiled, cfg Config) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := pf.accepts(cfg); err != nil {
		return nil, err
	}
	pipe := cfg.Obs.SpanOn(cfg.Lane, "pipeline")
	defer pipe.End()
	cfg.Obs.Counter("pipeline.runs").Inc()
	v := verifier{mode: cfg.Check, reg: cfg.Obs, pipe: pipe}

	res := &Result{
		Prog:        pf.Input,
		Weights:     pf.InputWeights,
		OrigWeights: pf.InputWeights,
	}
	if cfg.Strategy.Inline {
		res.Prog, res.Weights, res.InlineReport = pf.Inlined, pf.InlinedWeights, pf.InlineReport
	}
	prog, w := res.Prog, res.Weights
	res.TotalBytes = prog.Bytes()

	// The front end's verifier reports lead, as if its stages had run
	// here.
	if cfg.Check != check.Off {
		res.Checks = &check.Report{}
		res.Checks.Merge(pf.inputChecks)
		if cfg.Strategy.Inline {
			res.Checks.Merge(pf.inlineChecks)
		}
	}
	verify := func(u *check.Unit) error {
		rep, err := v.run(u)
		res.Checks.Merge(rep)
		return err
	}

	if cfg.Ledger {
		res.Ledger = &Ledger{}
	}
	led := res.Ledger
	led.capture("input", layout.Natural(pf.Input), pf.InputWeights)
	// After inlining the program still has its natural layout; the
	// ledger row prices the code growth and the locality of the
	// re-measured profile before any reordering. When inlining is
	// disabled the row repeats "input" (zero delta).
	led.capture("inline", layout.Natural(prog), w)

	// Step 3: trace selection. (Step 4 consumes only its own
	// function's selection, so the two steps run as separate passes —
	// which also gives each a clean timing span.)
	sp := pipe.Span("traceselect")
	res.Traces = make([]traceselect.Result, len(prog.Funcs))
	res.Orders = make([]funclayout.Order, len(prog.Funcs))
	var tracesFormed int
	for _, f := range prog.Funcs {
		fw := &w.Funcs[f.ID]
		if cfg.Strategy.TraceLayout {
			sel := traceselect.Select(f, fw, cfg.MinProb)
			res.Traces[f.ID] = sel
			res.TraceStats.Add(traceselect.ComputeStats(f, fw, &sel))
		} else {
			res.Traces[f.ID] = naturalTraces(f, fw)
		}
		tracesFormed += len(res.Traces[f.ID].Traces)
	}
	sp.End()
	cfg.Obs.Counter("pipeline.traceselect.traces").Add(uint64(tracesFormed))
	if err := verify(&check.Unit{
		Stage: check.StageTrace, Prog: prog, Weights: w,
		Traces: res.Traces, MinProb: cfg.MinProb,
		TraceLayout: cfg.Strategy.TraceLayout,
	}); err != nil {
		return nil, err
	}
	if led != nil {
		lay, err := layout.FromPlacement(prog, traceSelectionPlacement(prog, res.Traces))
		if err != nil {
			return nil, fmt.Errorf("core: ledger traceselect layout: %w", err)
		}
		led.capture("traceselect", lay, w)
	}

	// Step 4: function body layout.
	sp = pipe.Span("funclayout")
	var blocksMoved int
	for _, f := range prog.Funcs {
		fw := &w.Funcs[f.ID]
		if cfg.Strategy.TraceLayout {
			res.Orders[f.ID] = funclayout.Layout(f, fw, &res.Traces[f.ID])
		} else {
			res.Orders[f.ID] = naturalOrder(f)
		}
		for i, b := range res.Orders[f.ID].Blocks {
			if b != ir.BlockID(i) {
				blocksMoved++
			}
		}
		res.EffectiveBytes += res.Orders[f.ID].EffectiveBytes(f)
	}
	sp.End()
	cfg.Obs.Counter("pipeline.funclayout.blocks_moved").Add(uint64(blocksMoved))
	if led != nil {
		var pl layout.Placement
		for _, f := range prog.Funcs {
			for _, b := range res.Orders[f.ID].Blocks {
				pl.Order = append(pl.Order, layout.BlockRef{F: f.ID, B: b})
			}
		}
		lay, err := layout.FromPlacement(prog, pl)
		if err != nil {
			return nil, fmt.Errorf("core: ledger funclayout layout: %w", err)
		}
		led.capture("funclayout", lay, w)
	}

	// Step 5: global layout.
	sp = pipe.Span("globallayout")
	if cfg.Strategy.GlobalDFS {
		if cfg.Strategy.PettisHansen {
			res.GlobalOrder = globallayout.PettisHansen(prog, w)
		} else {
			res.GlobalOrder = globallayout.Layout(prog, w)
		}
	} else {
		order := make([]ir.FuncID, len(prog.Funcs))
		for i := range order {
			order[i] = ir.FuncID(i)
		}
		res.GlobalOrder = globallayout.Order{Funcs: order}
	}
	sp.End()
	var funcsMoved int
	for i, f := range res.GlobalOrder.Funcs {
		if f != ir.FuncID(i) {
			funcsMoved++
		}
	}
	cfg.Obs.Counter("pipeline.globallayout.funcs_moved").Add(uint64(funcsMoved))

	// Compose the final placement.
	sp = pipe.Span("compose")
	var pl layout.Placement
	if cfg.Strategy.SplitCold {
		// Effective regions of all functions in global order, then the
		// non-executed regions in the same order.
		for _, f := range res.GlobalOrder.Funcs {
			o := res.Orders[f]
			for _, b := range o.Blocks[:o.EffectiveBlocks] {
				pl.Order = append(pl.Order, layout.BlockRef{F: f, B: b})
			}
		}
		for _, f := range res.GlobalOrder.Funcs {
			o := res.Orders[f]
			for _, b := range o.Blocks[o.EffectiveBlocks:] {
				pl.Order = append(pl.Order, layout.BlockRef{F: f, B: b})
			}
		}
	} else {
		for _, f := range res.GlobalOrder.Funcs {
			for _, b := range res.Orders[f].Blocks {
				pl.Order = append(pl.Order, layout.BlockRef{F: f, B: b})
			}
		}
	}
	res.Layout, err = layout.FromPlacement(prog, pl)
	if err != nil {
		return nil, fmt.Errorf("core: composing layout: %w", err)
	}
	sp.End()
	cfg.Obs.Counter("pipeline.compose.blocks_placed").Add(uint64(len(pl.Order)))
	led.capture("globallayout", res.Layout, w)
	if err := verify(&check.Unit{
		Stage: check.StageLayout, Prog: prog, Weights: w,
		Traces: res.Traces, MinProb: cfg.MinProb,
		Orders: res.Orders, Global: &res.GlobalOrder,
		Layout: res.Layout, EffectiveBytes: res.EffectiveBytes,
		TraceLayout: cfg.Strategy.TraceLayout, SplitCold: cfg.Strategy.SplitCold,
	}); err != nil {
		return nil, err
	}

	// Optional stage: conflict-driven local search over the global
	// function order, scored by incremental static re-analysis.
	if cfg.Search != nil {
		scfg := *cfg.Search
		if scfg.Obs == nil {
			scfg.Obs = cfg.Obs
		}
		if scfg.Lane == 0 {
			scfg.Lane = cfg.Lane
		}
		sp = pipe.Span("search")
		res.Search, err = search.Optimize(search.Input{
			Prog: prog, Weights: w,
			Orders: res.Orders, Global: res.GlobalOrder,
			SplitCold: cfg.Strategy.SplitCold,
		}, scfg)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("core: layout search: %w", err)
		}
		if res.Search.Improved {
			res.GlobalOrder = res.Search.Order
			res.Layout = res.Search.Layout
			if err := verify(&check.Unit{
				Stage: check.StageSearch, Prog: prog, Weights: w,
				Traces: res.Traces, MinProb: cfg.MinProb,
				Orders: res.Orders, Global: &res.GlobalOrder,
				Layout: res.Layout, EffectiveBytes: res.EffectiveBytes,
				TraceLayout: cfg.Strategy.TraceLayout, SplitCold: cfg.Strategy.SplitCold,
			}); err != nil {
				return nil, err
			}
			led.capture("search", res.Layout, w)
		}
	}

	// Optional stage: static cache-behavior analysis of the layout.
	if cfg.Analysis != nil {
		acfg := *cfg.Analysis
		if acfg.Obs == nil {
			acfg.Obs = cfg.Obs
		}
		if acfg.Lane == 0 {
			acfg.Lane = cfg.Lane
		}
		sp = pipe.Span("analysis")
		res.Analysis, err = analysis.Analyze(res.Layout, w, acfg)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("core: static cache analysis: %w", err)
		}
		if err := verify(&check.Unit{
			Stage: check.StageAnalysis, Prog: prog, Weights: w,
			Layout: res.Layout, Analysis: res.Analysis,
		}); err != nil {
			return nil, err
		}
	}

	// Optional stage: static page-level analysis of the layout.
	if cfg.Pages != nil {
		pcfg := *cfg.Pages
		if pcfg.Obs == nil {
			pcfg.Obs = cfg.Obs
		}
		if pcfg.Lane == 0 {
			pcfg.Lane = cfg.Lane
		}
		sp = pipe.Span("pages")
		res.Pages, err = analysis.AnalyzePages(res.Layout, w, pcfg)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("core: static page analysis: %w", err)
		}
		if err := verify(&check.Unit{
			Stage: check.StagePaging, Prog: prog, Weights: w,
			Layout: res.Layout, Pages: res.Pages,
		}); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// naturalTraces puts every block in its own trace (used when trace
// layout is disabled, so Table 4 style stats remain computable).
func naturalTraces(f *ir.Function, fw *profile.FuncWeights) traceselect.Result {
	res := traceselect.Result{
		TraceOf: make([]int, len(f.Blocks)),
		PosOf:   make([]int, len(f.Blocks)),
	}
	for _, b := range f.Blocks {
		res.TraceOf[b.ID] = int(b.ID)
		res.Traces = append(res.Traces, traceselect.Trace{
			ID:     int(b.ID),
			Blocks: []ir.BlockID{b.ID},
			Weight: fw.BlockW[b.ID],
		})
	}
	return res
}

// naturalOrder keeps declaration order with no effective split.
func naturalOrder(f *ir.Function) funclayout.Order {
	o := funclayout.Order{Blocks: make([]ir.BlockID, len(f.Blocks))}
	for i := range o.Blocks {
		o.Blocks[i] = ir.BlockID(i)
	}
	o.EffectiveBlocks = len(o.Blocks)
	return o
}

// EvalTrace executes res.Prog with the given evaluation seed under
// res.Layout and returns the instruction fetch trace — the paper's
// "dynamic trace" taken with "a randomly selected input".
func (res *Result) EvalTrace(seed uint64, cfg interp.Config) (*memtrace.Trace, interp.Result, error) {
	return layout.Trace(res.Layout, seed, cfg)
}

// DynCallsAfter returns the dynamic call count of the transformed
// program over the profiling runs (for Table 3's "call dec").
func (res *Result) DynCallsAfter() uint64 { return res.Weights.DynCalls }

// CallDecrease returns the fraction of dynamic calls eliminated by
// inline expansion (Table 3 "call dec").
func (res *Result) CallDecrease() float64 {
	before := res.OrigWeights.DynCalls
	if before == 0 {
		return 0
	}
	after := res.Weights.DynCalls
	if after > before {
		return 0
	}
	return float64(before-after) / float64(before)
}

// InstrsPerCall returns dynamic instructions executed per dynamic
// function call after inlining (Table 3 "DI's per call").
func (res *Result) InstrsPerCall() float64 {
	if res.Weights.DynCalls == 0 {
		return float64(res.Weights.DynInstrs)
	}
	return float64(res.Weights.DynInstrs) / float64(res.Weights.DynCalls)
}

// TransfersPerCall returns dynamic control transfers (branches) per
// dynamic call after inlining (Table 3 "CT's per call").
func (res *Result) TransfersPerCall() float64 {
	if res.Weights.DynCalls == 0 {
		return float64(res.Weights.DynBranches)
	}
	return float64(res.Weights.DynBranches) / float64(res.Weights.DynCalls)
}
