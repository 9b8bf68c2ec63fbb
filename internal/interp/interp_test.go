package interp

import (
	"errors"
	"reflect"
	"testing"

	"impact/internal/ir"
	"impact/internal/memtrace"
)

// fetches records the fetch runs a run emits, unmerged.
type fetches []memtrace.Run

func (f *fetches) Run(r memtrace.Run) { *f = append(*f, r) }

// instrs returns the instructions the recorded runs cover.
func (f fetches) instrs() uint64 {
	var n uint64
	for _, r := range f {
		n += uint64(r.Bytes / ir.InstrBytes)
	}
	return n
}

// sum adds up one counter table.
func sum(xs []uint64) uint64 {
	var n uint64
	for _, x := range xs {
		n += x
	}
	return n
}

// natural returns the declaration-order block-address table of p.
func natural(p *ir.Program) []uint32 {
	var addr []uint32
	var at uint32
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			addr = append(addr, at)
			at += uint32(b.Bytes())
		}
	}
	return addr
}

// straightLine builds: main: b0(3 instrs) -> b1(2 instrs, ret).
func straightLine(t *testing.T) *ir.Program {
	t.Helper()
	pb := ir.NewProgramBuilder()
	fb := pb.NewFunc("main")
	b0 := fb.NewBlock()
	b1 := fb.NewBlock()
	fb.Fill(b0, 3)
	fb.FallThrough(b0, b1)
	fb.Fill(b1, 1)
	fb.Ret(b1)
	return pb.Build()
}

// callProgram builds main calling leaf once mid-block.
func callProgram(t *testing.T) *ir.Program {
	t.Helper()
	pb := ir.NewProgramBuilder()
	leaf := pb.NewFunc("leaf")
	lb := leaf.NewBlock()
	leaf.Fill(lb, 2)
	leaf.Ret(lb)

	main := pb.NewFunc("main")
	mb := main.NewBlock()
	main.Fill(mb, 2)
	main.Call(mb, leaf.ID())
	main.Fill(mb, 3)
	main.Ret(mb)
	pb.SetEntry(main.ID())
	return pb.Build()
}

// loopProgram builds a loop with back-edge probability p.
func loopProgram(t *testing.T, p float64) *ir.Program {
	t.Helper()
	pb := ir.NewProgramBuilder()
	fb := pb.NewFunc("main")
	head := fb.NewBlock()
	body := fb.NewBlock()
	exit := fb.NewBlock()
	fb.Fill(head, 1)
	fb.FallThrough(head, body)
	fb.Fill(body, 4)
	fb.Branch(body, ir.Arc{To: body, Prob: p}, ir.Arc{To: exit, Prob: 1 - p})
	fb.Fill(exit, 1)
	fb.Ret(exit)
	return pb.Build()
}

func TestStraightLineEvents(t *testing.T) {
	p := straightLine(t)
	e := NewEngine(p)
	c := e.NewCounts()
	var runs fetches
	res, err := e.Run(1, Config{}, c, natural(p), &runs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("straight-line run did not complete")
	}
	// 3 filler in b0 (fallthrough adds no instr) + 2 in b1 = 5.
	if res.Instrs != 5 {
		t.Fatalf("Instrs = %d, want 5", res.Instrs)
	}
	if runs.instrs() != 5 {
		t.Fatalf("fetch runs cover %d instrs, want 5", runs.instrs())
	}
	if got := sum(c.Blocks); got != 2 {
		t.Fatalf("%d block entries counted, want 2", got)
	}
	if got := sum(c.Arcs); got != 1 {
		t.Fatalf("%d taken arcs counted, want 1", got)
	}
	if res.Branches != 1 {
		t.Fatalf("Branches = %d, want 1", res.Branches)
	}
	if res.Returns != 1 {
		t.Fatal("expected exactly one return")
	}
}

func TestCallSequence(t *testing.T) {
	p := callProgram(t)
	e := NewEngine(p)
	c := e.NewCounts()
	var runs fetches
	res, err := e.Run(7, Config{}, c, []uint32{1000, 2000}, &runs)
	if err != nil {
		t.Fatal(err)
	}
	// main block: 2 fill + call + 3 fill + ret = 7; leaf: 3. Total 10.
	if res.Instrs != 10 {
		t.Fatalf("Instrs = %d, want 10", res.Instrs)
	}
	if res.Calls != 1 {
		t.Fatalf("Calls = %d, want 1", res.Calls)
	}
	if res.Returns != 2 {
		t.Fatalf("Returns = %d, want 2", res.Returns)
	}
	// The program's only call is main's instruction 2 (ordinal 1 is
	// main's block, ordinal 0 leaf's).
	if !reflect.DeepEqual(c.Calls, []uint64{1}) {
		t.Fatalf("call counts %v, want [1]", c.Calls)
	}
	if cl := e.calls[0]; cl.pos != 2 || cl.entry != 0 || e.blocks[1].call0 != 0 || e.blocks[1].call1 != 1 {
		t.Fatalf("compiled call %+v in block %+v", cl, e.blocks[1])
	}
	// Fetch runs: main [0,3) (incl. call), leaf [0,3), main [3,7).
	want := fetches{{Addr: 2000, Bytes: 12}, {Addr: 1000, Bytes: 12}, {Addr: 2012, Bytes: 16}}
	if !reflect.DeepEqual(runs, want) {
		t.Fatalf("fetch runs %v, want %v", runs, want)
	}
	// Block entries: main entry once, leaf entry once. Resuming main
	// after the call must NOT re-enter the block.
	if !reflect.DeepEqual(c.Blocks, []uint64{1, 1}) {
		t.Fatalf("block entries %v, want [1 1]", c.Blocks)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	p := loopProgram(t, 0.9)
	e := NewEngine(p)
	r1, err := e.Run(123, Config{}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Run(123, Config{}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatalf("same seed diverged: %+v vs %+v", r1, r2)
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	p := loopProgram(t, 0.9)
	e := NewEngine(p)
	r1, _ := e.Run(1, Config{}, nil, nil, nil)
	r2, _ := e.Run(2, Config{}, nil, nil, nil)
	if r1.Instrs == r2.Instrs {
		// Possible but wildly unlikely for a geometric loop; try a
		// third seed before declaring failure.
		r3, _ := e.Run(3, Config{}, nil, nil, nil)
		if r3.Instrs == r1.Instrs {
			t.Fatal("three seeds produced identical loop lengths")
		}
	}
}

func TestLoopMeanTripCount(t *testing.T) {
	p := loopProgram(t, 0.9) // mean 10 iterations
	e := NewEngine(p)
	var totalBody uint64
	const runs = 2000
	for s := uint64(0); s < runs; s++ {
		res, err := e.Run(s, Config{}, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		// body executes (instrs - head 1 - exit 2) / 5 times.
		totalBody += (res.Instrs - 3) / 5
	}
	mean := float64(totalBody) / runs
	if mean < 8.5 || mean > 11.5 {
		t.Fatalf("mean trip count %v, want ~10", mean)
	}
}

func TestMaxStepsStopsRun(t *testing.T) {
	p := loopProgram(t, 0.999999) // effectively infinite
	res, err := NewEngine(p).Run(5, Config{MaxSteps: 1000}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("run claimed completion despite step cap")
	}
	if res.Instrs < 1000 || res.Instrs > 1100 {
		t.Fatalf("Instrs = %d, want ~1000", res.Instrs)
	}
}

func TestMaxDepthError(t *testing.T) {
	// Build mutually recursive a <-> b with no escape below the depth
	// cap: a calls b, b calls a, both before their rets... but
	// validation requires exits; give each a ret after the call so the
	// program is valid yet recursion is unconditional.
	pb := ir.NewProgramBuilder()
	fa := pb.NewFunc("a")
	fbF := pb.NewFunc("b")
	ab := fa.NewBlock()
	fa.Call(ab, fbF.ID())
	fa.Ret(ab)
	bb := fbF.NewBlock()
	fbF.Call(bb, fa.ID())
	fbF.Ret(bb)
	pb.SetEntry(fa.ID())
	p := pb.Build()

	_, err := NewEngine(p).Run(1, Config{MaxDepth: 64}, nil, nil, nil)
	if !errors.Is(err, ErrDepthExceeded) {
		t.Fatalf("err = %v, want ErrDepthExceeded", err)
	}
}

func TestProbJitterValidation(t *testing.T) {
	p := straightLine(t)
	if _, err := NewEngine(p).Run(1, Config{ProbJitter: 1.5}, nil, nil, nil); err == nil {
		t.Fatal("ProbJitter 1.5 accepted")
	}
	if _, err := NewEngine(p).Run(1, Config{ProbJitter: -0.1}, nil, nil, nil); err == nil {
		t.Fatal("negative ProbJitter accepted")
	}
}

func TestProbJitterChangesBehaviour(t *testing.T) {
	p := loopProgram(t, 0.95)
	e := NewEngine(p)
	// Same arc-choice seed, different jitter: trip counts should
	// differ for at least one of a few seeds.
	differs := false
	for s := uint64(0); s < 5 && !differs; s++ {
		a, _ := e.Run(s, Config{}, nil, nil, nil)
		b, _ := e.Run(s, Config{ProbJitter: 0.3}, nil, nil, nil)
		differs = a.Instrs != b.Instrs
	}
	if !differs {
		t.Fatal("jitter had no observable effect")
	}
}

func TestEmptyBlockExecutes(t *testing.T) {
	// Hand-build a program with an empty pass-through block, as inline
	// expansion creates.
	pb := ir.NewProgramBuilder()
	fb := pb.NewFunc("main")
	b0 := fb.NewBlock()
	mid := fb.NewBlock()
	b1 := fb.NewBlock()
	fb.Fill(b0, 2)
	fb.FallThrough(b0, mid)
	fb.FallThrough(mid, b1) // mid stays empty
	fb.Fill(b1, 1)
	fb.Ret(b1)
	p := pb.Build()

	e := NewEngine(p)
	c := e.NewCounts()
	var runs fetches
	res, err := e.Run(1, Config{}, c, natural(p), &runs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Instrs != 4 {
		t.Fatalf("Instrs = %d, want 4", res.Instrs)
	}
	if !reflect.DeepEqual(c.Blocks, []uint64{1, 1, 1}) {
		t.Fatalf("block entries %v, want [1 1 1] (empty block still entered)", c.Blocks)
	}
	// Empty block must not emit a zero-length fetch run.
	for _, r := range runs {
		if r.Bytes == 0 {
			t.Fatalf("zero-length fetch run emitted: %+v", r)
		}
	}
}

func TestBranchDistribution(t *testing.T) {
	// entry branches 0.8/0.2 to two ret blocks; measure arc frequency.
	pb := ir.NewProgramBuilder()
	fb := pb.NewFunc("main")
	e0 := fb.NewBlock()
	l := fb.NewBlock()
	r := fb.NewBlock()
	fb.Fill(e0, 1)
	fb.Branch(e0, ir.Arc{To: l, Prob: 0.8}, ir.Arc{To: r, Prob: 0.2})
	fb.Ret(l)
	fb.Ret(r)
	p := pb.Build()

	eng := NewEngine(p)
	c := eng.NewCounts()
	const runs = 5000
	for s := uint64(0); s < runs; s++ {
		if _, err := eng.Run(s, Config{}, c, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if sum(c.Arcs) != runs {
		t.Fatalf("%d arcs taken in %d runs, want one per run", sum(c.Arcs), runs)
	}
	frac := float64(c.Arcs[0]) / runs
	if frac < 0.77 || frac > 0.83 {
		t.Fatalf("arc 0 taken fraction %v, want ~0.8", frac)
	}
}

// TestRunAllocsIndependentOfLength is the engine's allocation guard: a
// warm run with counters and a fetch sink allocates the same number of
// times at any length, so the loop itself never allocates.
func TestRunAllocsIndependentOfLength(t *testing.T) {
	p := callLoop(t)
	e := NewEngine(p)
	c := e.NewCounts()
	addr := natural(p)
	var sink memtrace.RunCount
	allocs := func(steps uint64) float64 {
		cfg := Config{MaxSteps: steps, ProbJitter: 0.2}
		run := func() {
			res, err := e.Run(1, cfg, c, addr, &sink)
			if err != nil || res.Completed {
				t.Fatalf("MaxSteps %d: %+v, %v; want a capped run", steps, res, err)
			}
		}
		run() // warm the probability cache
		return testing.AllocsPerRun(10, run)
	}
	if short, long := allocs(1e3), allocs(1e5); short != long {
		t.Fatalf("warm Run allocates %v times at MaxSteps 1e3, %v at 1e5", short, long)
	}
}

// callLoop builds main looping (almost) forever over a block that
// calls leaf.
func callLoop(t *testing.T) *ir.Program {
	t.Helper()
	pb := ir.NewProgramBuilder()
	leaf := pb.NewFunc("leaf")
	lb := leaf.NewBlock()
	leaf.Fill(lb, 3)
	leaf.Ret(lb)
	main := pb.NewFunc("main")
	body := main.NewBlock()
	exit := main.NewBlock()
	main.Fill(body, 2)
	main.Call(body, leaf.ID())
	main.Branch(body, ir.Arc{To: body, Prob: 1 - 1e-9}, ir.Arc{To: exit, Prob: 1e-9})
	main.Ret(exit)
	pb.SetEntry(main.ID())
	return pb.Build()
}
