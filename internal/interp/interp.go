// Package interp executes IR programs under their behavioural model.
//
// The engine is the reproduction's stand-in for running a compiled
// benchmark on real hardware with a real input: it walks a program's
// control-flow graphs, choosing among a block's outgoing arcs according
// to their behavioural probabilities with a deterministic, seeded PRNG.
// One seed plays the role of one input file; the paper's "runs" (Table
// 2) become runs of this engine with distinct seeds.
//
// NewEngine compiles a program once into dense tables indexed by one
// global block ordinal (see Ordinals), and one loop, Run, walks them
// for both consumers, as the paper's instrumented and traced binaries
// execute the same program: internal/profile passes Counts, the
// IMPACT-I probe counters, and internal/layout passes a block-address
// table and a memtrace.Sink for the instruction fetch runs.
package interp

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"impact/internal/ir"
	"impact/internal/memtrace"
	"impact/internal/xrand"
)

// Config controls one execution.
type Config struct {
	// MaxSteps caps the number of executed instructions. Zero means
	// DefaultMaxSteps. Reaching the cap stops the run gracefully with
	// Result.Completed == false.
	MaxSteps uint64
	// MaxDepth caps the call stack depth; exceeding it is an error.
	// Zero means DefaultMaxDepth.
	MaxDepth int
	// ProbJitter perturbs every arc probability by a per-run random
	// factor in [1-ProbJitter, 1+ProbJitter] (then renormalises), so
	// that different seeds behave like genuinely different inputs
	// rather than resamples of one input. Must be in [0, 1).
	ProbJitter float64
}

// DefaultMaxSteps bounds runaway executions; realistic runs configure
// an explicit budget well below this.
const DefaultMaxSteps = 1 << 40

// DefaultMaxDepth is the default call-stack limit.
const DefaultMaxDepth = 4096

// Result summarises one execution.
type Result struct {
	// Instrs is the number of instructions executed (= dynamic
	// instruction accesses in the paper's terms).
	Instrs uint64
	// Branches is the number of taken intra-function control
	// transfers (the paper's "control" column of Table 2 counts
	// control transfers other than call/return).
	Branches uint64
	// Calls is the number of executed call instructions.
	Calls uint64
	// Returns is the number of executed return instructions.
	Returns uint64
	// Completed reports whether the program ran to completion (entry
	// function returned) rather than hitting the step cap.
	Completed bool
}

// Ordinals numbers the blocks of p, functions in FuncID order, then
// blocks in BlockID order: block b of function f has the global block
// ordinal Ordinals(p)[f] + b, and the final element is the block count.
// The same walk numbers arcs (in Block.Out order) and calls (in
// instruction order). Every dense per-block table is indexed this way.
func Ordinals(p *ir.Program) []int32 {
	base := make([]int32, len(p.Funcs)+1)
	for fi, f := range p.Funcs {
		base[fi+1] = base[fi] + int32(len(f.Blocks))
	}
	return base
}

// Counts are dense execution counters, indexed by ordinal (see
// Ordinals): Blocks counts block entries, Arcs taken arcs and Calls
// executed call instructions. A run that returns into the middle of a
// block resumes it without entering it again.
type Counts struct {
	Blocks []uint64
	Arcs   []uint64
	Calls  []uint64
}

// block is one compiled basic block: its function, its instruction
// count n, its span [call0, call1) of Engine.calls and its span
// [arc0, arc1) of Engine.to and the probability table.
type block struct {
	fn                          ir.FuncID
	n, call0, call1, arc0, arc1 int32
}

// call is one compiled call instruction.
type call struct {
	pos   int32 // instruction index within its block
	entry int32 // ordinal of the callee's entry block
}

// frame is a suspended caller: block ordinal and resume instruction.
type frame struct{ o, instr int32 }

// Engine executes one program from flat tables compiled once, so
// running it many times with different seeds is cheap. An Engine is
// safe for concurrent Run calls.
type Engine struct {
	prog   *ir.Program
	entry  int32 // ordinal of the entry function's entry block
	blocks []block
	calls  []call
	to     []int32 // destination ordinal of each arc
	// probsCache holds the jittered-probability table of the most
	// recent run. Re-running the same seed — tracing the same "input"
	// under a second layout, or re-deriving a memoized trace — skips
	// the whole-program table rebuild. Lock-free: entries are
	// immutable once published.
	probsCache atomic.Pointer[probsEntry]
}

// probsEntry is one cached jittered-probability table, keyed by the
// derived probability seed and the jitter amplitude.
type probsEntry struct {
	seed   uint64
	jitter float64
	probs  []float64 // cumulative, indexed by arc ordinal
}

// NewEngine prepares p for execution. The program must be valid.
func NewEngine(p *ir.Program) *Engine {
	base := Ordinals(p)
	e := &Engine{
		prog:   p,
		entry:  base[p.Entry] + int32(p.EntryFunc().Entry),
		blocks: make([]block, 0, base[len(p.Funcs)]),
	}
	for fi, f := range p.Funcs {
		for _, b := range f.Blocks {
			blk := block{fn: ir.FuncID(fi), n: int32(len(b.Instrs)), call0: int32(len(e.calls)), arc0: int32(len(e.to))}
			for j, in := range b.Instrs {
				if in.Op == ir.OpCall {
					e.calls = append(e.calls, call{pos: int32(j), entry: base[in.Callee] + int32(p.Funcs[in.Callee].Entry)})
				}
			}
			for _, a := range b.Out {
				e.to = append(e.to, base[fi]+int32(a.To))
			}
			blk.call1, blk.arc1 = int32(len(e.calls)), int32(len(e.to))
			e.blocks = append(e.blocks, blk)
		}
	}
	return e
}

// NewCounts returns zeroed counters shaped for the engine's program.
func (e *Engine) NewCounts() *Counts {
	return &Counts{
		Blocks: make([]uint64, len(e.blocks)),
		Arcs:   make([]uint64, len(e.to)),
		Calls:  make([]uint64, len(e.calls)),
	}
}

// ErrDepthExceeded reports that the call stack grew past MaxDepth.
var ErrDepthExceeded = errors.New("interp: call depth exceeded")

// Run executes the program with the given seed as its "input", adding
// its block entries, taken arcs and executed calls to c when c is
// non-nil. When sink is non-nil, each non-empty segment of a block
// (up to and including a call, or to its end) reaches sink as one
// fetch run at addr[ordinal] + offset, addr holding one address per
// block ordinal.
func (e *Engine) Run(seed uint64, cfg Config, c *Counts, addr []uint32, sink memtrace.Sink) (Result, error) {
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = DefaultMaxSteps
	}
	if cfg.MaxDepth == 0 {
		cfg.MaxDepth = DefaultMaxDepth
	}
	if cfg.ProbJitter < 0 || cfg.ProbJitter >= 1 {
		return Result{}, fmt.Errorf("interp: ProbJitter %v outside [0, 1)", cfg.ProbJitter)
	}
	rng := xrand.New(xrand.Seed(seed, 0x45c0))
	pseed := xrand.Seed(seed, 0x11f7)
	var probs []float64
	if pc := e.probsCache.Load(); pc != nil && pc.seed == pseed && pc.jitter == cfg.ProbJitter {
		probs = pc.probs
	} else {
		probs = e.jitteredProbs(pseed, cfg.ProbJitter)
		e.probsCache.Store(&probsEntry{seed: pseed, jitter: cfg.ProbJitter, probs: probs})
	}

	var res Result
	blocks, calls := e.blocks, e.calls
	stack := make([]frame, 0, 64)
	o, instr := e.entry, int32(0)
	for {
		b := &blocks[o]
		if instr == 0 && c != nil {
			// Control has just arrived at the top of this block
			// (function entry or taken arc); a return into the middle
			// of a block resumes with instr > 0 and does not re-enter.
			c.Blocks[o]++
		}

		// Execute up to and including the next call in this block, or
		// to its end.
		k, hi := b.call0, b.n
		for k < b.call1 && calls[k].pos < instr {
			k++
		}
		if k < b.call1 {
			hi = calls[k].pos + 1
		}
		if hi > instr {
			if sink != nil {
				sink.Run(memtrace.Run{Addr: addr[o] + uint32(instr)*ir.InstrBytes, Bytes: uint32(hi-instr) * ir.InstrBytes})
			}
			res.Instrs += uint64(hi - instr)
		}
		if k < b.call1 {
			res.Calls++
			if c != nil {
				c.Calls[k]++
			}
			if len(stack)+1 >= cfg.MaxDepth {
				return res, fmt.Errorf("%w (depth %d at %s calling %s)", ErrDepthExceeded, len(stack)+1,
					e.prog.Funcs[b.fn].Name, e.prog.Funcs[blocks[calls[k].entry].fn].Name)
			}
			stack = append(stack, frame{o: o, instr: hi})
			o, instr = calls[k].entry, 0
			if res.Instrs >= cfg.MaxSteps {
				return res, nil
			}
			continue
		}
		if b.arc0 == b.arc1 {
			// Function exit.
			res.Returns++
			if res.Instrs >= cfg.MaxSteps {
				return res, nil
			}
			if len(stack) == 0 {
				break
			}
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			o, instr = top.o, top.instr
			continue
		}
		a := b.arc0
		if b.arc1-a > 1 {
			// Exactly one draw per multi-arc block: the first arc
			// whose cumulative probability exceeds it, else the last.
			x := rng.Float64()
			for a < b.arc1-1 && x >= probs[a] {
				a++
			}
		}
		if c != nil {
			c.Arcs[a]++
		}
		res.Branches++
		o, instr = e.to[a], 0
		if res.Instrs >= cfg.MaxSteps {
			return res, nil
		}
	}
	res.Completed = true
	return res, nil
}

// jitteredProbs builds the per-run cumulative arc probability table,
// indexed by arc ordinal.
//
// The jitter factor of an arc is a pure function of the run seed and
// the arc's shape (its probability, index, and fan-out), NOT of the
// arc's position in the program. This matters for comparing layouts
// and transformed programs: inline expansion clones arcs with
// identical probabilities, so under this scheme the same input seed
// makes identical branch decisions on the original and the inlined
// program — exactly as one input file drives one control-flow history
// regardless of how the compiler arranged the code.
func (e *Engine) jitteredProbs(seed uint64, jitter float64) []float64 {
	out := make([]float64, 0, len(e.to))
	for _, f := range e.prog.Funcs {
		for _, b := range f.Blocks {
			if len(b.Out) == 0 {
				continue
			}
			cum := out[len(out) : len(out)+len(b.Out)]
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
			// Renormalise so the final entry is exactly 1.
			for k := range cum {
				cum[k] /= total
			}
			cum[len(cum)-1] = 1
			out = out[:len(out)+len(b.Out)]
		}
	}
	return out
}
