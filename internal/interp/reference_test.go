package interp_test

// This file pins the dense execution loop to the event-callback engine
// it replaced. The reference below is that engine, kept verbatim apart
// from renaming: its Sink interface, event loop and jittered
// probabilities, the profile collector built on it, and the tracer that
// turned Exec events into fetch runs. The differential test runs both
// on every benchmark of the default and extended suites, on the input
// and the inlined program, and requires equal profiles, traces, fetch
// streams, results and depth errors.

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"impact/internal/core"
	"impact/internal/interp"
	"impact/internal/ir"
	"impact/internal/layout"
	"impact/internal/memtrace"
	"impact/internal/profile"
	"impact/internal/workload"
	"impact/internal/xrand"
)

// refSink receives execution events. Methods are called in program order.
type refSink interface {
	EnterBlock(f ir.FuncID, b ir.BlockID)
	Exec(f ir.FuncID, b ir.BlockID, lo, hi int32)
	TakeArc(f ir.FuncID, b ir.BlockID, arcIdx int32)
	Call(site ir.CallSite, callee ir.FuncID)
	Return(f ir.FuncID)
}

// refNopSink discards all events. Embed it to implement partial sinks.
type refNopSink struct{}

func (refNopSink) EnterBlock(ir.FuncID, ir.BlockID)         {}
func (refNopSink) Exec(ir.FuncID, ir.BlockID, int32, int32) {}
func (refNopSink) TakeArc(ir.FuncID, ir.BlockID, int32)     {}
func (refNopSink) Call(ir.CallSite, ir.FuncID)              {}
func (refNopSink) Return(ir.FuncID)                         {}

type refFrame struct {
	f     ir.FuncID
	b     ir.BlockID
	instr int32
	site  ir.CallSite
}

type refEngine struct {
	prog *ir.Program
	// callPos[f][b] lists instruction indices of calls in the block.
	callPos [][][]int32
}

func newRefEngine(p *ir.Program) *refEngine {
	e := &refEngine{prog: p}
	e.callPos = make([][][]int32, len(p.Funcs))
	for fi, f := range p.Funcs {
		e.callPos[fi] = make([][]int32, len(f.Blocks))
		for bi, b := range f.Blocks {
			for j, in := range b.Instrs {
				if in.Op == ir.OpCall {
					e.callPos[fi][bi] = append(e.callPos[fi][bi], int32(j))
				}
			}
		}
	}
	return e
}

func (e *refEngine) Run(seed uint64, cfg interp.Config, sink refSink) (interp.Result, error) {
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = interp.DefaultMaxSteps
	}
	if cfg.MaxDepth == 0 {
		cfg.MaxDepth = interp.DefaultMaxDepth
	}
	if cfg.ProbJitter < 0 || cfg.ProbJitter >= 1 {
		return interp.Result{}, fmt.Errorf("interp: ProbJitter %v outside [0, 1)", cfg.ProbJitter)
	}
	rng := xrand.New(xrand.Seed(seed, 0x45c0))
	pseed := xrand.Seed(seed, 0x11f7)
	probs := e.jitteredProbs(pseed, cfg.ProbJitter)

	var res interp.Result
	prog := e.prog
	entry := prog.EntryFunc()
	stack := make([]refFrame, 1, 64)
	stack[0] = refFrame{f: prog.Entry, b: entry.Entry, instr: 0}

	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		fn := prog.Funcs[fr.f]
		blk := fn.Blocks[fr.b]

		if fr.instr == 0 {
			sink.EnterBlock(fr.f, fr.b)
		}

		next := int32(len(blk.Instrs))
		isCall := false
		for _, cp := range e.callPos[fr.f][fr.b] {
			if cp >= fr.instr {
				next = cp
				isCall = true
				break
			}
		}
		if isCall {
			lo, hi := fr.instr, next+1
			if hi > lo {
				sink.Exec(fr.f, fr.b, lo, hi)
				res.Instrs += uint64(hi - lo)
			}
			res.Calls++
			callee := blk.Instrs[next].Callee
			site := ir.CallSite{Func: fr.f, Block: fr.b, Instr: next}
			sink.Call(site, callee)
			fr.instr = next + 1
			if len(stack) >= cfg.MaxDepth {
				return res, fmt.Errorf("%w (depth %d at %s calling %s)",
					interp.ErrDepthExceeded, len(stack), fn.Name, prog.Funcs[callee].Name)
			}
			cf := prog.Funcs[callee]
			stack = append(stack, refFrame{f: callee, b: cf.Entry, instr: 0, site: site})
			if res.Instrs >= cfg.MaxSteps {
				return res, nil
			}
			continue
		}

		lo, hi := fr.instr, int32(len(blk.Instrs))
		if hi > lo {
			sink.Exec(fr.f, fr.b, lo, hi)
			res.Instrs += uint64(hi - lo)
		}
		if len(blk.Out) == 0 {
			res.Returns++
			sink.Return(fr.f)
			stack = stack[:len(stack)-1]
			if res.Instrs >= cfg.MaxSteps {
				return res, nil
			}
			continue
		}
		arcIdx := refChooseArc(probs[fr.f][fr.b], rng)
		sink.TakeArc(fr.f, fr.b, int32(arcIdx))
		res.Branches++
		fr.b = blk.Out[arcIdx].To
		fr.instr = 0
		if res.Instrs >= cfg.MaxSteps {
			return res, nil
		}
	}
	res.Completed = true
	return res, nil
}

func (e *refEngine) jitteredProbs(seed uint64, jitter float64) [][][]float64 {
	out := make([][][]float64, len(e.prog.Funcs))
	for fi, f := range e.prog.Funcs {
		out[fi] = make([][]float64, len(f.Blocks))
		for bi, b := range f.Blocks {
			if len(b.Out) == 0 {
				continue
			}
			cum := make([]float64, len(b.Out))
			var total float64
			for k, a := range b.Out {
				p := a.Prob
				if jitter > 0 && p > 0 && len(b.Out) > 1 {
					u := float64(xrand.Seed(seed, math.Float64bits(p), uint64(k), uint64(len(b.Out)))>>11) / (1 << 53)
					p *= 1 + jitter*(2*u-1)
				}
				total += p
				cum[k] = total
			}
			for k := range cum {
				cum[k] /= total
			}
			cum[len(cum)-1] = 1
			out[fi][bi] = cum
		}
	}
	return out
}

func refChooseArc(cum []float64, rng *xrand.RNG) int {
	if len(cum) == 1 {
		return 0
	}
	x := rng.Float64()
	if len(cum) == 2 {
		if x < cum[0] {
			return 0
		}
		return 1
	}
	for i, c := range cum {
		if x < c {
			return i
		}
	}
	return len(cum) - 1
}

// refCollector is the profile collector on the event engine.
type refCollector struct {
	refNopSink
	W *profile.Weights
}

func (c *refCollector) EnterBlock(f ir.FuncID, b ir.BlockID) {
	c.W.Funcs[f].BlockW[b]++
}

func (c *refCollector) TakeArc(f ir.FuncID, b ir.BlockID, arcIdx int32) {
	c.W.Funcs[f].ArcW[b][arcIdx]++
}

func (c *refCollector) Call(site ir.CallSite, callee ir.FuncID) {
	c.W.Sites[site]++
	c.W.Pairs[profile.CallPair{Caller: site.Func, Callee: callee}]++
	c.W.Funcs[callee].Entries++
}

func refProfile(p *ir.Program, cfg profile.Config) (*profile.Weights, []interp.Result, error) {
	if len(cfg.Seeds) == 0 {
		return nil, nil, fmt.Errorf("profile: no seeds given")
	}
	w := profile.NewWeights(p)
	eng := newRefEngine(p)
	col := &refCollector{W: w}
	results := make([]interp.Result, 0, len(cfg.Seeds))
	for _, seed := range cfg.Seeds {
		w.Funcs[p.Entry].Entries++
		start := time.Now()
		res, err := eng.Run(seed, cfg.Interp, col)
		if err != nil {
			return nil, nil, fmt.Errorf("profile: seed %d: %w", seed, err)
		}
		interp.Record(cfg.Obs, res, time.Since(start))
		w.DynInstrs += res.Instrs
		w.DynBranches += res.Branches
		w.DynCalls += res.Calls
		w.DynReturns += res.Returns
		if !res.Completed {
			w.Capped++
		}
		results = append(results, res)
	}
	w.Runs = len(cfg.Seeds)
	return w, results, nil
}

// refTracer converts Exec events into fetch runs under a layout.
type refTracer struct {
	refNopSink
	lay  *layout.Layout
	sink memtrace.Sink
}

func (t *refTracer) Exec(f ir.FuncID, b ir.BlockID, lo, hi int32) {
	t.sink.Run(memtrace.Run{
		Addr:  t.lay.InstrAddr(f, b, lo),
		Bytes: uint32(hi-lo) * ir.InstrBytes,
	})
}

func refStream(lay *layout.Layout, seed uint64, cfg interp.Config, sink memtrace.Sink) (interp.Result, error) {
	m := memtrace.NewMerger(sink)
	res, err := newRefEngine(lay.Program()).Run(seed, cfg, &refTracer{lay: lay, sink: m})
	if err != nil {
		return res, err
	}
	m.Flush()
	return res, nil
}

func refTrace(lay *layout.Layout, seed uint64, cfg interp.Config) (*memtrace.Trace, interp.Result, error) {
	var buf memtrace.Buffer
	res, err := newRefEngine(lay.Program()).Run(seed, cfg, &refTracer{lay: lay, sink: &buf})
	if err != nil {
		return nil, res, err
	}
	return buf.Seal(), res, nil
}

// runLog records a fetch stream as delivered.
type runLog []memtrace.Run

func (l *runLog) Run(r memtrace.Run) { *l = append(*l, r) }

// depthCap is small enough that every benchmark's call graph exceeds
// it on its evaluation input.
const depthCap = 3

// TestDenseLoopMatchesReference is the differential between the dense
// loop and the event engine it replaced. For each benchmark of
// Suite(0.05), Suite(0.1) and ExtendedSuite(0.05), on the input program
// and on its core.FrontEnd inlined program, it requires:
//   - profile.Profile's Weights and per-run results deep-equal the
//     reference collector's (every field, the Sites/Pairs maps,
//     Capped and the Dyn* totals included);
//   - layout.Trace and layout.Stream under the natural, random and
//     (for the inlined program) optimized layouts deliver the
//     reference's runs, instruction counts and results;
//   - a run under a call-depth cap fails with the reference's error
//     text after the same partial result.
//
// At least one capped profiling run and one depth error must be
// covered, so the cap and depth paths cannot go untested.
func TestDenseLoopMatchesReference(t *testing.T) {
	suites := []struct {
		name    string
		benches []*workload.Benchmark
	}{
		{"suite-0.05", workload.Suite(0.05)},
		{"suite-0.1", workload.Suite(0.1)},
		{"extended-0.05", workload.ExtendedSuite(0.05)},
	}
	var cappedRuns, depthErrs, programs int
	for _, s := range suites {
		for _, b := range s.benches {
			cfg := core.DefaultConfig(b.ProfileSeeds...)
			cfg.Interp = b.InterpConfig()
			front, err := core.FrontEnd(b.Prog, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", s.name, b.Name(), err)
			}
			res, err := core.BackEnd(front, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", s.name, b.Name(), err)
			}
			if front.Inlined == nil {
				t.Fatalf("%s/%s: front end did not inline", s.name, b.Name())
			}
			subjects := []struct {
				name string
				prog *ir.Program
				lays map[string]*layout.Layout
			}{
				{"input", b.Prog, map[string]*layout.Layout{
					"natural": layout.Natural(b.Prog),
					"random":  layout.Random(b.Prog, 7),
				}},
				{"inlined", front.Inlined, map[string]*layout.Layout{
					"natural":   layout.Natural(front.Inlined),
					"random":    layout.Random(front.Inlined, 7),
					"optimized": res.Layout,
				}},
			}
			for _, sub := range subjects {
				name := fmt.Sprintf("%s/%s/%s", s.name, b.Name(), sub.name)
				programs++
				pcfg := profile.Config{Seeds: b.ProfileSeeds, Interp: b.InterpConfig()}
				w, runs, err := profile.Profile(sub.prog, pcfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				rw, rruns, err := refProfile(sub.prog, pcfg)
				if err != nil {
					t.Fatalf("%s: reference: %v", name, err)
				}
				if !reflect.DeepEqual(w, rw) {
					t.Errorf("%s: profile weights differ from the reference", name)
				}
				if !reflect.DeepEqual(runs, rruns) {
					t.Errorf("%s: profile runs %+v, reference %+v", name, runs, rruns)
				}
				cappedRuns += w.Capped

				ecfg := b.EvalConfig()
				for lname, lay := range sub.lays {
					tr, tres, err := layout.Trace(lay, b.EvalSeed, ecfg)
					if err != nil {
						t.Fatalf("%s/%s: %v", name, lname, err)
					}
					rtr, rtres, err := refTrace(lay, b.EvalSeed, ecfg)
					if err != nil {
						t.Fatalf("%s/%s: reference: %v", name, lname, err)
					}
					if tres != rtres || tr.Instrs != rtr.Instrs || !reflect.DeepEqual(tr.Runs, rtr.Runs) {
						t.Errorf("%s/%s: trace %d runs / %d instrs / %+v, reference %d / %d / %+v",
							name, lname, len(tr.Runs), tr.Instrs, tres, len(rtr.Runs), rtr.Instrs, rtres)
					}
					var got, want runLog
					sres, err := layout.Stream(lay, b.EvalSeed, ecfg, &got)
					if err != nil {
						t.Fatalf("%s/%s: %v", name, lname, err)
					}
					rsres, err := refStream(lay, b.EvalSeed, ecfg, &want)
					if err != nil {
						t.Fatalf("%s/%s: reference: %v", name, lname, err)
					}
					if sres != rsres || !reflect.DeepEqual(got, want) {
						t.Errorf("%s/%s: stream %d runs / %+v, reference %d / %+v",
							name, lname, len(got), sres, len(want), rsres)
					}
				}

				dcfg := ecfg
				dcfg.MaxDepth = depthCap
				dres, derr := interp.NewEngine(sub.prog).Run(b.EvalSeed, dcfg, nil, nil, nil)
				rdres, rderr := newRefEngine(sub.prog).Run(b.EvalSeed, dcfg, refNopSink{})
				if (derr == nil) != (rderr == nil) || (derr != nil && derr.Error() != rderr.Error()) || dres != rdres {
					t.Errorf("%s: depth-capped run %+v, %v; reference %+v, %v", name, dres, derr, rdres, rderr)
				}
				if errors.Is(derr, interp.ErrDepthExceeded) {
					depthErrs++
				}
			}
		}
	}
	t.Logf("%d programs, %d capped profiling runs, %d depth errors", programs, cappedRuns, depthErrs)
	if cappedRuns == 0 {
		t.Error("no capped profiling run covered")
	}
	if depthErrs == 0 {
		t.Error("no depth error covered")
	}
}
