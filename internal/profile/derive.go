package profile

import (
	"fmt"
	"maps"
	"math"
	"math/bits"
	"slices"

	"impact/internal/interp"
	"impact/internal/ir"
)

// Derive returns the profile Profile would measure for program q,
// computed from program p's profile w and its per-run results instead
// of by running the interpreter again.
//
// The interpreter draws randomness only when a block leaves by one of
// several arcs, with jitter keyed by the arc's probability bits, index
// and fan-out. So two programs with the same control skeleton — the
// same entry function, functions and blocks, arcs (To and bitwise
// Prob) and ordered callees in every block — make the same block, arc
// and call decisions under the same seeds, whatever else their blocks
// hold. A code-scaled copy of a program (ir.ScaleCode) is the
// motivating case. The derivation copies every count, re-keys call
// sites by their ordinal within the block and recounts DynInstrs with
// q's block sizes.
//
// Derive refuses, with an error saying why, when the derivation might
// not be exact: the skeletons differ, a source run was capped, or q's
// larger blocks could make a run reach the step cap of cfg. The caller
// then profiles q with the interpreter.
func Derive(p *ir.Program, w *Weights, runs []interp.Result, q *ir.Program, cfg interp.Config) (*Weights, error) {
	switch {
	case p == nil || w == nil:
		return nil, fmt.Errorf("profile: no source profile")
	case w.Capped > 0:
		return nil, fmt.Errorf("profile: source profile has %d capped runs", w.Capped)
	case len(runs) != w.Runs:
		return nil, fmt.Errorf("profile: source profile has %d runs but %d run results", w.Runs, len(runs))
	}
	if err := w.Check(p); err != nil {
		return nil, err
	}
	if err := sameSkeleton(p, q); err != nil {
		return nil, err
	}
	if err := capBound(p, w, runs, q, cfg); err != nil {
		return nil, err
	}

	d := &Weights{
		Funcs:       make([]FuncWeights, len(w.Funcs)),
		Pairs:       maps.Clone(w.Pairs),
		Sites:       make(map[ir.CallSite]uint64, len(w.Sites)),
		DynBranches: w.DynBranches,
		DynCalls:    w.DynCalls,
		DynReturns:  w.DynReturns,
		Runs:        w.Runs,
	}
	for fi, fw := range w.Funcs {
		qf := q.Funcs[fi]
		dw := FuncWeights{
			Entries: fw.Entries,
			BlockW:  slices.Clone(fw.BlockW),
			ArcW:    make([][]uint64, len(fw.ArcW)),
		}
		for bi, n := range fw.BlockW {
			dw.ArcW[bi] = slices.Clone(fw.ArcW[bi])
			// Every run completed, so each block entry executed the
			// whole block.
			d.DynInstrs += n * uint64(len(qf.Blocks[bi].Instrs))
		}
		d.Funcs[fi] = dw
	}
	//lint:maprange each entry is re-keyed independently
	for s, n := range w.Sites {
		j := slices.Index(p.Funcs[s.Func].Blocks[s.Block].CallSites(), int(s.Instr))
		s.Instr = int32(q.Funcs[s.Func].Blocks[s.Block].CallSites()[j])
		d.Sites[s] = n
	}
	return d, nil
}

// sameSkeleton reports, as an error, the first difference between p's
// and q's control skeletons.
func sameSkeleton(p, q *ir.Program) error {
	if p.Entry != q.Entry {
		return fmt.Errorf("profile: entry function %d differs from %d", q.Entry, p.Entry)
	}
	if len(p.Funcs) != len(q.Funcs) {
		return fmt.Errorf("profile: %d functions differ from %d", len(q.Funcs), len(p.Funcs))
	}
	for fi, pf := range p.Funcs {
		qf := q.Funcs[fi]
		if pf.Entry != qf.Entry || len(pf.Blocks) != len(qf.Blocks) {
			return fmt.Errorf("profile: func %q: entry block %d of %d differs from %d of %d",
				pf.Name, qf.Entry, len(qf.Blocks), pf.Entry, len(pf.Blocks))
		}
		for bi, pb := range pf.Blocks {
			qb := qf.Blocks[bi]
			if !slices.EqualFunc(pb.Out, qb.Out, func(a, b ir.Arc) bool {
				return a.To == b.To && math.Float64bits(a.Prob) == math.Float64bits(b.Prob)
			}) {
				return fmt.Errorf("profile: func %q block %d: arcs %v differ from %v", pf.Name, bi, qb.Out, pb.Out)
			}
			if pc, qc := callees(pb), callees(qb); !slices.Equal(pc, qc) {
				return fmt.Errorf("profile: func %q block %d: callees %v differ from %v", pf.Name, bi, qc, pc)
			}
		}
	}
	return nil
}

// callees lists the targets of b's calls in instruction order.
func callees(b *ir.Block) []ir.FuncID {
	var out []ir.FuncID
	for _, in := range b.Instrs {
		if in.Op == ir.OpCall {
			out = append(out, in.Callee)
		}
	}
	return out
}

// capBound proves that no run on q reaches cfg's step cap: each run
// executes at most its source instruction count times the largest
// growth len_q/len_p of any executed block. The bound must stay
// strictly below the cap, because a run that ends exactly at the cap
// is reported as incomplete.
func capBound(p *ir.Program, w *Weights, runs []interp.Result, q *ir.Program, cfg interp.Config) error {
	maxSteps := cfg.MaxSteps
	if maxSteps == 0 {
		maxSteps = interp.DefaultMaxSteps
	}
	// The growth bound is num/den, kept as a fraction so the
	// comparison below is exact.
	num, den := uint64(0), uint64(1)
	for fi, fw := range w.Funcs {
		for bi, n := range fw.BlockW {
			if n == 0 {
				continue
			}
			lp := uint64(len(p.Funcs[fi].Blocks[bi].Instrs))
			lq := uint64(len(q.Funcs[fi].Blocks[bi].Instrs))
			if lp == 0 && lq > 0 {
				return fmt.Errorf("profile: func %q block %d: executed empty block has %d instructions in the derived program",
					p.Funcs[fi].Name, bi, lq)
			}
			if lq*den > num*lp {
				num, den = lq, lp
			}
		}
	}
	for i, r := range runs {
		if !mulLess(r.Instrs, num, maxSteps, den) {
			return fmt.Errorf("profile: run %d may reach the step cap %d on the derived program (%d source instructions, block growth %d/%d)",
				i, maxSteps, r.Instrs, num, den)
		}
	}
	return nil
}

// mulLess reports whether a*b < c*d, exactly.
func mulLess(a, b, c, d uint64) bool {
	ah, al := bits.Mul64(a, b)
	ch, cl := bits.Mul64(c, d)
	return ah < ch || ah == ch && al < cl
}
