package analysis

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"impact/internal/layout"
	"impact/internal/profile"
)

// Incremental re-analysis.
//
// The region supergraph's structure — regions, successor edges, RPO,
// persistence scopes, entry bounds — depends only on the program and
// its profile, never on block addresses: a candidate layout changes
// which cache lines each region fetches, not which regions exist or
// how control flows between them. An Incremental reuses all of that
// across candidate layouts and re-solves only the part of the
// fixpoint a move can actually perturb.
//
// That part is small because the abstract transfers are set-local: an
// access to line x ages only the lines of x's cache set (see
// mustAccess/mayAccess), so the must/may fixpoint decomposes into one
// independent subsystem per cache set. A layout move changes the
// access sequences only on the lines its moved regions used to fetch
// and fetch now; call the cache sets of those lines *dirty*. Every
// equation over a clean set's lines is identical under the old and
// new layout — same accesses, same joins — so those values are
// already final, and only the dirty sets' lines need re-solving.
//
// Each dirty set re-solves as a *condensed* system (solveDirtySets).
// Within one set's subsystem, only the regions whose span contains
// one of the set's lines actually transform the state; every other
// region is an identity conduit, forwarding its in-state to its
// successors unchanged. Collapsing the conduits leaves a tiny system
// over the set's writers plus the entry, whose edges are the
// conduit-closed paths of the supergraph, and whose states are short
// packed columns — one byte per line of the set. Eliminating an
// identity equation from a monotone join system preserves its least
// solution (the conduit's in-state is exactly the join of its
// predecessors' out-states, and joins are idempotent over path
// unions), so the condensed solution is the full subsystem's solution
// restricted to the writers.
//
// That argument holds for any number of dirty sets, so every update
// takes this path, even one that dirties every set: the per-set systems
// are smaller than the full vector fixpoint even then, because each one
// walks only its own writers. The one exception is a layout of a
// different size. It resizes the line universe, so every state vector
// changes shape and the whole fixpoint reconverges (fullResolve).
//
// The collapse happens in two stages so the expensive graph walk runs
// once per update, not once per dirty set: first a closure over the
// whole supergraph condenses pure conduits — regions writing no dirty
// set — onto the union nodes (writers of any dirty set, plus the
// entry); then, per dirty set, a closure over the much smaller union
// graph further condenses the union nodes that do not write that set.
// Composing the two collapses is exact: a path between two of a set's
// nodes that avoids the set's nodes internally decomposes uniquely
// into pure-conduit hops between union nodes, all of them non-writers
// of the set.
//
// The condensed solve restarts every node column at the domain's
// neutral element — must-age 0 (the elementwise minimum; joins are
// max) and may-age absent (the maximum; joins are min) — with the
// program entry's column seeded from the cold cache, and iterates to
// a fixpoint. These fake seeds cannot survive: every node receives a
// full column from a predecessor node (or keeps the cold seed), each
// contribution washes the neutral element out of the join, and by
// monotonicity the iteration converges to exactly the least (must) /
// greatest (may) solution a from-scratch fixpoint reaches. Conduit
// regions keep stale values on the set's lines, but nothing reads
// them: the linear passes (classify) read only the cache-set columns
// of each region's own span — and a region whose span touches a
// dirty set is by definition a writer, hence re-solved. The result
// is therefore bit-identical to Analyze of the candidate layout —
// held by the differential tests in incremental_test.go and the
// suite-wide test in internal/experiments — modulo the Iterations
// counter, which reports only the work this update performed.
//
// The linear passes (classify, score, conflict) are cached the same
// way: per-region, per-set, and per-edge contributions folded by
// commutative operators, re-derived only where the move invalidated
// them (see inclinear.go). Together — no supergraph rebuild, a few
// condensed per-set fixpoints, and delta-maintained linear passes —
// an update costs O(dirty footprint), which is what makes the
// analyzer cheap enough to score thousands of candidate moves in
// internal/search.

// Incremental analyses a sequence of candidate layouts of one program
// against one profile and cache geometry, reusing converged abstract
// states between layouts. Not safe for concurrent use.
type Incremental struct {
	cfg Config
	w   *profile.Weights
	lay *layout.Layout
	g   geom
	sg  *supergraph
	sc  *sccInfo
	fx  *absResult
	res *Result
	// lin caches the linear passes' contributions (inclinear.go).
	lin *linearState

	ranges []lineSpan // cached line range per region under lay

	dirty    []bool // scratch: per-region worklist flags (full re-solve)
	dirtySet []bool // scratch: cache sets touched by moved code
	outM     []uint8
	outY     []uint8
	cold     []uint8

	// Linear-pass invalidation scratch: sets where a weighted region's
	// bytes moved (a superset of dirtySet's cause — sub-line moves
	// change byte ownership without moving lines), the functions whose
	// addresses changed, and per-set region lists for the conflict
	// recompute.
	confDirty     []bool
	confDirtySets []uint32
	confRegs      [][]int32
	funcChanged   []bool
	anyAddr       bool

	// Condensed system scratch (solveDirtySets).
	dirtySets []uint32 // the dirty sets, ascending
	uFlag     []bool   // scratch: region touches a dirty set
	uOf       []int32  // region -> union-node index, -1 outside
	uNodes    []int32  // union nodes (dirty-set writers + entry), RPO order
	sOf       []int32  // union node -> per-set node index, -1 outside
	uCyc      []bool   // union node sits in a cyclic SCC
	nodes     []int32  // per-set nodes as union-node indices, RPO order
	wbuf      []uint64 // pure-conduit reachability, region-indexed
	wbGen     []uint64 // wbuf row generations (lazy per-update init)
	wbEpoch   uint64
	tbuf      []uint64 // per-union-node direct target bitsets
	uSuccOff  []int32  // tbuf flattened to successor lists
	uSuccBuf  []int32
	rbuf      []uint64 // per-set: union-conduit reachability
	rbGen     []uint64 // rbuf row generations (lazy per-set init)
	rbEpoch   uint64
	stbuf     []uint64 // per-set: per-node target bitsets
	colM      []uint8  // packed node in-columns, must
	colY      []uint8  // packed node in-columns, may
	yFill     []uint8  // absentAge-filled template for column init
	nodeDirty []bool
	ubufPool  [][]uint8 // recycled undo-column buffers, one per dirty set
	setOrd    []int32   // set -> index in dirtySets, -1 when clean
	bOff      []int32   // union nodes bucketed by written dirty set
	bBuf      []int32
	bCur      []int32

	undo *undoState
	// spare is the last retired undoState; Update recycles its record
	// slices (their contents are dead once a new update begins).
	spare *undoState
}

// lineSpan is a region's cached cache-line range.
type lineSpan struct {
	l0, l1 uint32
	ok     bool
}

// undoState lets Revert restore the previous layout's converged state
// in O(dirty lines) instead of re-running the fixpoint.
type undoState struct {
	lay   *layout.Layout
	res   *Result
	g     geom
	addrs []uint32
	// full holds whole state vectors to reinstall after a full
	// re-solve (the layout's size changed); cols holds
	// the previous values of the node columns each condensed per-set
	// solve overwrote.
	full []undoRegion
	cols []undoCol
	// Linear-cache undo: lin is the whole previous cache when the
	// update rebuilt it (layout resize); otherwise the delta records
	// revertLinear replays in reverse.
	lin      *linearState
	moved    []movedSpan
	contribs []contribUndo
	confs    []confUndo
	scores   []scoreUndo
}

type undoRegion struct {
	r         int32
	must, may []uint8
}

// undoCol is one region's previous abstract values on one cache set's
// lines; must[u] and may[u] belong to line set + u*numSets.
type undoCol struct {
	r         int32
	set       uint32
	must, may []uint8
}

// NewIncremental runs a full analysis of lay and returns an engine
// whose Update re-analyses candidate layouts of the same program
// incrementally. cfg is validated exactly like Analyze.
func NewIncremental(lay *layout.Layout, w *profile.Weights, cfg Config) (*Incremental, error) {
	if err := validate(lay, w, &cfg); err != nil {
		return nil, err
	}
	reg := cfg.Obs
	root := reg.SpanOn(cfg.Lane, "analysis")
	defer root.End()

	sp := root.Span("supergraph")
	sg := buildSupergraph(lay, w)
	g := newGeom(cfg.Cache, lay.Total)
	sp.End()
	sp = root.Span("fixpoint")
	fx := g.fixpoint(sg)
	sp.End()
	sp = root.Span("persist")
	sc := buildScopes(sg, effectiveRuns(w))
	sp.End()

	n := len(sg.regions)
	inc := &Incremental{
		cfg: cfg, w: w, lay: lay, g: g, sg: sg, sc: sc, fx: fx,
		ranges:      make([]lineSpan, n),
		dirty:       make([]bool, n),
		uFlag:       make([]bool, n),
		uOf:         make([]int32, n),
		dirtySet:    make([]bool, g.numSets), // numSets is layout-independent
		confDirty:   make([]bool, g.numSets),
		confRegs:    make([][]int32, g.numSets),
		funcChanged: make([]bool, len(lay.Program().Funcs)),
	}
	for i := range inc.uOf {
		inc.uOf[i] = -1
	}
	inc.sizeScratch()
	inc.cacheRanges()
	sp = root.Span("linear")
	inc.lin = inc.buildLinear(lay)
	inc.res = inc.assemble(lay, root)
	sp.End()
	return inc, nil
}

// Result returns the analysis of the engine's current layout (the
// last successful Update, or the base layout).
func (inc *Incremental) Result() *Result { return inc.res }

// Layout returns the engine's current layout.
func (inc *Incremental) Layout() *layout.Layout { return inc.lay }

func (inc *Incremental) sizeScratch() {
	n := int(inc.g.numLines)
	if len(inc.outM) != n {
		inc.outM = make([]uint8, n)
		inc.outY = make([]uint8, n)
		inc.cold = make([]uint8, n)
		for i := range inc.cold {
			inc.cold[i] = absentAge
		}
	}
}

func (inc *Incremental) cacheRanges() {
	for ri := range inc.sg.regions {
		l0, l1, ok := inc.sg.regions[ri].lineRange(inc.g.blockBytes)
		inc.ranges[ri] = lineSpan{l0: l0, l1: l1, ok: ok}
	}
}

// markSpan flags the cache sets a line span maps to as dirty.
func (inc *Incremental) markSpan(sp lineSpan) {
	if !sp.ok {
		return
	}
	g := inc.g
	if sp.l1-sp.l0+1 >= g.numSets {
		for s := range inc.dirtySet {
			inc.dirtySet[s] = true
		}
		return
	}
	for l := sp.l0; l <= sp.l1; l++ {
		inc.dirtySet[g.set(l)] = true
	}
}

// markConf flags the cache sets of a line span as needing a conflict
// recompute (byte-level ownership may have changed).
func (inc *Incremental) markConf(sp lineSpan) {
	if !sp.ok {
		return
	}
	g := inc.g
	if sp.l1-sp.l0+1 >= g.numSets {
		for s := range inc.confDirty {
			inc.confDirty[s] = true
		}
		return
	}
	for l := sp.l0; l <= sp.l1; l++ {
		inc.confDirty[g.set(l)] = true
	}
}

// spanTouches reports whether a line span contains a line of set s.
func (g geom) spanTouches(sp lineSpan, s uint32) bool {
	if !sp.ok {
		return false
	}
	n := sp.l1 - sp.l0 + 1
	return n >= g.numSets || (s+g.numSets-sp.l0%g.numSets)%g.numSets < n
}

// spanTouchesDirty reports whether a span contains a dirty set's line.
func (inc *Incremental) spanTouchesDirty(sp lineSpan) bool {
	if !sp.ok {
		return false
	}
	if sp.l1-sp.l0+1 >= inc.g.numSets {
		return len(inc.dirtySets) > 0
	}
	for l := sp.l0; l <= sp.l1; l++ {
		if inc.dirtySet[inc.g.set(l)] {
			return true
		}
	}
	return false
}

// Update re-analyses the program under lay, re-running the fixpoint
// only on the cache sets where lay moved code across cache-line
// boundaries, each as its condensed system however many sets are
// dirty. Only a layout whose size differs from the current one
// reconverges the whole fixpoint (counted by
// analysis.incremental_full_resolves). The result (also retained for
// Result) is bit-identical to Analyze(lay, w, cfg) except for the
// Iterations counter, which reports only the node evaluations this
// update performed. The previous layout's state is kept until the next
// Update or Revert, so a rejected candidate can be undone in O(dirty
// lines).
func (inc *Incremental) Update(lay *layout.Layout) (*Result, error) {
	if lay.Program() != inc.lay.Program() {
		return nil, fmt.Errorf("analysis: incremental update with a different program")
	}
	if lay.Total == 0 {
		return nil, fmt.Errorf("analysis: layout places no code")
	}
	reg := inc.cfg.Obs
	root := reg.SpanOn(inc.cfg.Lane, "analysis")
	defer root.End()
	sp := root.Span("incremental")

	sg := inc.sg
	undo := &undoState{lay: inc.lay, res: inc.res, g: inc.g}
	// Recycle the previous undo's record storage: its contents are dead
	// the moment a new update begins (Revert only undoes the last one).
	if prev := inc.undo; prev != nil {
		inc.spare, inc.undo = prev, nil
	}
	if prev := inc.spare; prev != nil {
		inc.spare = nil
		undo.addrs = prev.addrs
		undo.full = prev.full[:0]
		undo.cols = prev.cols[:0]
		undo.moved = prev.moved[:0]
		undo.contribs = prev.contribs[:0]
		undo.confs = prev.confs[:0]
		undo.scores = prev.scores[:0]
	}
	if cap(undo.addrs) < len(sg.regions) {
		undo.addrs = make([]uint32, len(sg.regions))
	}
	undo.addrs = undo.addrs[:len(sg.regions)]

	// A code-size change resizes the line universe: every abstract
	// state changes shape, so everything reconverges (still without
	// rebuilding the supergraph).
	resizeAll := lay.Total != inc.lay.Total
	if resizeAll {
		inc.g = newGeom(inc.cfg.Cache, lay.Total)
		inc.sizeScratch()
	}
	g := inc.g

	// Refresh addresses; find the regions whose fetched lines moved and
	// mark the cache sets of their old and new spans dirty. Separately
	// track, for the linear caches, the sets where a weighted region's
	// bytes moved at all (conflict ownership is byte-granular) and the
	// functions whose addresses changed (the score is address-exact).
	for s := range inc.dirtySet {
		inc.dirtySet[s] = false
		inc.confDirty[s] = false
	}
	for fi := range inc.funcChanged {
		inc.funcChanged[fi] = false
	}
	inc.anyAddr = false
	anyChanged := false
	for ri := range sg.regions {
		r := &sg.regions[ri]
		undo.addrs[ri] = r.addr
		r.addr = lay.InstrAddr(r.f, r.b, r.start)
		addrChanged := r.addr != undo.addrs[ri]
		if addrChanged {
			inc.funcChanged[r.f] = true
			inc.anyAddr = true
		}
		l0, l1, ok := r.lineRange(g.blockBytes)
		ns := lineSpan{l0: l0, l1: l1, ok: ok}
		old := inc.ranges[ri]
		if ns != old {
			if !resizeAll {
				inc.markSpan(old)
				inc.markSpan(ns)
				if r.weight > 0 {
					undo.moved = append(undo.moved, movedSpan{ri: int32(ri), prev: old, next: ns})
				}
			}
			inc.ranges[ri] = ns
			anyChanged = true
		}
		if addrChanged && !resizeAll && r.weight > 0 {
			inc.markConf(old)
			inc.markConf(ns)
		}
	}
	inc.dirtySets = inc.dirtySets[:0]
	inc.confDirtySets = inc.confDirtySets[:0]
	if !resizeAll {
		for s, d := range inc.dirtySet {
			if d {
				inc.dirtySets = append(inc.dirtySets, uint32(s))
			}
		}
		for s, d := range inc.confDirty {
			if d {
				inc.confDirtySets = append(inc.confDirtySets, uint32(s))
			}
		}
	}

	iterations, evaluated, dirtyCount := 0, 0, 0
	switch {
	case !anyChanged && !resizeAll:
		// Every region still fetches the same lines (moves below line
		// granularity): the fixpoint and the persistence fits are
		// untouched, only the address-dependent linear passes rerun.

	case resizeAll:
		// The line universe resized: every state vector has the wrong
		// length, so the whole fixpoint reconverges.
		iterations, evaluated = inc.fullResolve(undo)
		dirtyCount = int(g.numLines)

	default:
		iterations, evaluated, dirtyCount = inc.solveDirtySets(undo)
	}
	inc.fx.iterations = iterations
	sp.End()

	reg.Counter("analysis.incremental_updates").Inc()
	// Registered on every update so that a run without a resize
	// reports an explicit 0; fullResolve counts.
	reg.Counter("analysis.incremental_full_resolves").Add(0)
	reg.Counter("analysis.incremental_closure").Add(uint64(evaluated))
	reg.Counter("analysis.incremental_dirty_lines").Add(uint64(dirtyCount))
	reg.Counter("analysis.incremental_total_lines").Add(uint64(g.numLines))

	sp = root.Span("linear")
	if resizeAll {
		// The line universe resized: every cache array has the wrong
		// shape. Swap the whole state out for the undo and rebuild.
		undo.lin = inc.lin
		inc.lin = inc.buildLinear(lay)
	} else {
		inc.applyLinearDeltas(lay, undo)
	}
	inc.lay = lay
	inc.res = inc.assemble(lay, root)
	sp.End()
	inc.undo = undo
	return inc.res, nil
}

// fullResolve reconverges every reachable region from scratch, stealing
// the previous state vectors into the undo. Used only when the layout's
// size changed, so the vectors have the wrong length.
func (inc *Incremental) fullResolve(undo *undoState) (iterations, evaluated int) {
	inc.cfg.Obs.Counter("analysis.incremental_full_resolves").Inc()
	sg := inc.sg
	for ri := range sg.regions {
		if st := inc.fx.mustIn[ri]; st != nil {
			undo.full = append(undo.full, undoRegion{
				r: int32(ri), must: st, may: inc.fx.mayIn[ri],
			})
			inc.fx.mustIn[ri] = nil
			inc.fx.mayIn[ri] = nil
			evaluated++
		}
	}
	inc.fx.mustIn[sg.entry] = append([]uint8(nil), inc.cold...)
	inc.fx.mayIn[sg.entry] = append([]uint8(nil), inc.cold...)
	inc.dirty[sg.entry] = true
	iterations = inc.g.converge(sg, inc.fx, inc.dirty, inc.outM, inc.outY)
	return iterations, evaluated
}

// solveDirtySets re-converges every dirty cache set through the
// two-stage condensation (see the package comment): one pure-conduit
// closure over the whole supergraph onto the union nodes, then one
// tiny closure and converged column system per dirty set.
func (inc *Incremental) solveDirtySets(undo *undoState) (iterations, evaluated, dirtyCount int) {
	g, sg, fx := inc.g, inc.sg, inc.fx
	S, L := g.numSets, g.numLines

	// Union nodes: reachable regions whose span touches any dirty set,
	// plus the entry, in RPO order.
	for ri := range sg.regions {
		if fx.mustIn[ri] != nil && inc.spanTouchesDirty(inc.ranges[ri]) {
			inc.uFlag[ri] = true
		}
	}
	uNodes := inc.uNodes[:0]
	for _, ri := range sg.rpo {
		if inc.uFlag[ri] || ri == sg.entry {
			inc.uFlag[ri] = false
			inc.uOf[ri] = int32(len(uNodes))
			uNodes = append(uNodes, ri)
		}
	}
	inc.uNodes = uNodes
	nu := len(uNodes)
	wordsU := (nu + 63) / 64

	// Pure-conduit closure: wbuf rows hold, for each reachable region
	// that is not a union node, the union nodes its outgoing paths
	// reach through such conduits only. Reverse RPO (successors first)
	// makes one sweep final for the acyclic part — a changed row only
	// needs re-sweeping when it can feed a back edge, i.e. when the
	// region sits in a cyclic SCC — so only such changes re-sweep.
	nr := len(sg.regions)
	if cap(inc.wbuf) < nr*wordsU {
		inc.wbuf = make([]uint64, nr*wordsU)
	}
	wb := inc.wbuf[:nr*wordsU]
	if len(inc.wbGen) < nr {
		inc.wbGen = make([]uint64, nr)
	}
	inc.wbEpoch++
	wgen := inc.wbGen
	epoch := inc.wbEpoch
	for changed := true; changed; {
		changed = false
		for i := len(sg.rpo) - 1; i >= 0; i-- {
			ri := sg.rpo[i]
			if inc.uOf[ri] >= 0 {
				continue
			}
			cyc := inc.sc.scope[ri] >= 0
			row := wb[int(ri)*wordsU : (int(ri)+1)*wordsU]
			// The first visit doubles as init; a row read before its
			// first visit (back edge) is logically still all-zero.
			if wgen[ri] != epoch {
				wgen[ri] = epoch
				clear(row)
			}
			for _, q := range sg.regions[ri].succs {
				if j := inc.uOf[q]; j >= 0 {
					w, bit := int(j)/64, uint64(1)<<(uint(j)%64)
					if row[w]&bit == 0 {
						row[w] |= bit
						changed = changed || cyc
					}
					continue
				}
				if wgen[q] != epoch {
					continue
				}
				qrow := wb[int(q)*wordsU : (int(q)+1)*wordsU]
				for k, v := range qrow {
					if nv := row[k] | v; nv != row[k] {
						row[k] = nv
						changed = changed || cyc
					}
				}
			}
		}
	}

	// Direct union-node targets: the union nodes each union node's
	// out-state joins into through pure conduits.
	if cap(inc.tbuf) < nu*wordsU {
		inc.tbuf = make([]uint64, nu*wordsU)
	}
	tb := inc.tbuf[:nu*wordsU]
	for i := range tb {
		tb[i] = 0
	}
	for i, ri := range uNodes {
		row := tb[i*wordsU : (i+1)*wordsU]
		for _, q := range sg.regions[ri].succs {
			if j := inc.uOf[q]; j >= 0 {
				row[int(j)/64] |= uint64(1) << (uint(j) % 64)
				continue
			}
			qrow := wb[int(q)*wordsU : (int(q)+1)*wordsU]
			for k, v := range qrow {
				row[k] |= v
			}
		}
	}

	// Flatten the union graph into successor lists: the per-set
	// closures iterate each node's few edges instead of scanning its
	// whole target bitset row.
	if cap(inc.uSuccOff) < nu+1 {
		inc.uSuccOff = make([]int32, nu+1)
	}
	uOff := inc.uSuccOff[:nu+1]
	uSucc := inc.uSuccBuf[:0]
	uOff[0] = 0
	for i := 0; i < nu; i++ {
		row := tb[i*wordsU : (i+1)*wordsU]
		for w, bitsW := range row {
			for bitsW != 0 {
				t := w*64 + bits.TrailingZeros64(bitsW)
				bitsW &= bitsW - 1
				uSucc = append(uSucc, int32(t))
			}
		}
		uOff[i+1] = int32(len(uSucc))
	}
	inc.uSuccBuf = uSucc

	if cap(inc.sOf) < nu {
		inc.sOf = make([]int32, nu)
		inc.uCyc = make([]bool, nu)
	}
	sOf := inc.sOf[:nu]
	uCyc := inc.uCyc[:nu]
	for i := range sOf {
		sOf[i] = -1
		uCyc[i] = inc.sc.scope[uNodes[i]] >= 0
	}

	// Bucket the union nodes by the dirty sets their spans write, so
	// each set's node collection walks exactly its writers instead of
	// probing every union node. The entry (never bucketed) is merged
	// into every set's node list at its RPO position.
	nd := len(inc.dirtySets)
	if cap(inc.setOrd) < int(S) {
		inc.setOrd = make([]int32, S)
	}
	setOrd := inc.setOrd[:S]
	for i := range setOrd {
		setOrd[i] = -1
	}
	for k, s := range inc.dirtySets {
		setOrd[s] = int32(k)
	}
	e0 := inc.uOf[sg.entry]
	if cap(inc.bOff) < nd+1 {
		inc.bOff = make([]int32, nd+1)
		inc.bCur = make([]int32, nd)
	}
	bOff := inc.bOff[:nd+1]
	for i := range bOff {
		bOff[i] = 0
	}
	bucketVisit := func(f func(k int32, ui int32)) {
		for ui, ri := range uNodes {
			if int32(ui) == e0 {
				continue
			}
			sp := inc.ranges[ri]
			if !sp.ok {
				continue
			}
			if sp.l1-sp.l0+1 >= S {
				for k := 0; k < nd; k++ {
					f(int32(k), int32(ui))
				}
				continue
			}
			for l := sp.l0; l <= sp.l1; l++ {
				if k := setOrd[g.set(l)]; k >= 0 {
					f(k, int32(ui))
				}
			}
		}
	}
	bucketVisit(func(k, ui int32) { bOff[k+1]++ })
	for k := 0; k < nd; k++ {
		bOff[k+1] += bOff[k]
	}
	if cap(inc.bBuf) < int(bOff[nd]) {
		inc.bBuf = make([]int32, bOff[nd])
	}
	bBuf := inc.bBuf[:bOff[nd]]
	bCur := inc.bCur[:nd]
	copy(bCur, bOff[:nd])
	bucketVisit(func(k, ui int32) { bBuf[bCur[k]] = ui; bCur[k]++ })

	pooled := 0
	for _, s := range inc.dirtySets {
		if s >= L {
			continue // the set has no lines under this layout
		}
		colLen := int((L-s-1)/S + 1)
		dirtyCount += colLen

		// The set's nodes: its bucketed writers plus the entry, in RPO
		// order (buckets and uNodes are RPO-ordered; a span shorter than
		// the set count hits each set at most once, so buckets hold no
		// duplicates).
		bucket := bBuf[bOff[setOrd[s]]:bOff[setOrd[s]+1]]
		nodes := inc.nodes[:0]
		entryIn := false
		for _, ui := range bucket {
			if !entryIn && e0 < ui {
				entryIn = true
				sOf[e0] = int32(len(nodes))
				nodes = append(nodes, e0)
			}
			sOf[ui] = int32(len(nodes))
			nodes = append(nodes, ui)
		}
		if !entryIn {
			sOf[e0] = int32(len(nodes))
			nodes = append(nodes, e0)
		}
		inc.nodes = nodes
		n := len(nodes)
		evaluated += n
		wordsS := (n + 63) / 64

		// Second-stage closure: union nodes not writing this set are
		// conduits for it; rbuf rows hold the set nodes they reach
		// through such conduits (whose hops are the pure-conduit paths
		// tb already collapsed).
		if cap(inc.rbuf) < nu*wordsS {
			inc.rbuf = make([]uint64, nu*wordsS)
		}
		rb := inc.rbuf[:nu*wordsS]
		if len(inc.rbGen) < nu {
			inc.rbGen = make([]uint64, nu)
		}
		inc.rbEpoch++
		rgen := inc.rbGen
		repoch := inc.rbEpoch
		if cap(inc.stbuf) < n*wordsS {
			inc.stbuf = make([]uint64, n*wordsS)
		}
		st := inc.stbuf[:n*wordsS]
		// As in the first stage, the first visit doubles as init (a row
		// read over a back edge before its first visit is still zero)
		// and only changes to rows in cyclic SCCs re-sweep. Nearly every
		// set has at most 64 nodes: specialize that case to scalar rows
		// recomputed into a register — no bounds checks, no row memory
		// traffic per edge.
		if wordsS == 1 {
			// One word per row: cheaper to memclr the whole row array
			// than to carry generation stamps through the edge loop.
			clear(rb)
			for changed := true; changed; {
				changed = false
				for ui := nu - 1; ui >= 0; ui-- {
					if sOf[ui] >= 0 {
						continue
					}
					var acc uint64
					for _, t := range uSucc[uOff[ui]:uOff[ui+1]] {
						if j := sOf[t]; j >= 0 {
							acc |= uint64(1) << uint(j)
						} else {
							acc |= rb[t]
						}
					}
					if acc != rb[ui] {
						rb[ui] = acc
						changed = changed || uCyc[ui]
					}
				}
			}
			for i, ui := range nodes {
				var acc uint64
				for _, t := range uSucc[uOff[int(ui)]:uOff[int(ui)+1]] {
					if j := sOf[t]; j >= 0 {
						acc |= uint64(1) << uint(j)
					} else {
						acc |= rb[t]
					}
				}
				st[i] = acc
			}
		} else {
			for changed := true; changed; {
				changed = false
				for ui := nu - 1; ui >= 0; ui-- {
					if sOf[ui] >= 0 {
						continue
					}
					cyc := uCyc[ui]
					row := rb[ui*wordsS : (ui+1)*wordsS]
					if rgen[ui] != repoch {
						rgen[ui] = repoch
						clear(row)
					}
					for _, t := range uSucc[uOff[ui]:uOff[ui+1]] {
						if j := sOf[t]; j >= 0 {
							tw, bit := int(j)/64, uint64(1)<<(uint(j)%64)
							if row[tw]&bit == 0 {
								row[tw] |= bit
								changed = changed || cyc
							}
							continue
						}
						if rgen[t] != repoch {
							continue
						}
						qrow := rb[int(t)*wordsS : (int(t)+1)*wordsS]
						for k, v := range qrow {
							if nv := row[k] | v; nv != row[k] {
								row[k] = nv
								changed = changed || cyc
							}
						}
					}
				}
			}

			// Per-set-node targets.
			for i := range st {
				st[i] = 0
			}
			for i, ui := range nodes {
				row := st[i*wordsS : (i+1)*wordsS]
				for _, t := range uSucc[uOff[int(ui)]:uOff[int(ui)+1]] {
					if j := sOf[t]; j >= 0 {
						row[int(j)/64] |= uint64(1) << (uint(j) % 64)
						continue
					}
					qrow := rb[int(t)*wordsS : (int(t)+1)*wordsS]
					for k, v := range qrow {
						row[k] |= v
					}
				}
			}
		}

		// Columns start at the neutral element — must 0 (washed out by
		// the max-join), may absent (washed by the min-join) — and the
		// entry at the cold cache (all absent in both domains).
		if cap(inc.colM) < n*colLen {
			inc.colM = make([]uint8, n*colLen)
			inc.colY = make([]uint8, n*colLen)
		}
		colM := inc.colM[:n*colLen]
		colY := inc.colY[:n*colLen]
		if len(inc.yFill) < n*colLen {
			inc.yFill = make([]uint8, n*colLen)
			for i := range inc.yFill {
				inc.yFill[i] = absentAge
			}
		}
		clear(colM)
		copy(colY, inc.yFill)
		e := int(sOf[inc.uOf[sg.entry]])
		copy(colM[e*colLen:(e+1)*colLen], inc.yFill)

		// Record the previous column values for Revert. Conduits are
		// never modified (and never read) on this set, so the nodes'
		// columns are the whole footprint of the solve. The buffers come
		// from a per-set pool (one chunk per dirty set, never grown in
		// place, so the undo slices cut from a chunk stay valid); pooled
		// chunks are only overwritten by the next update, after the undo
		// that references them is dead.
		size := 2 * n * colLen
		var ubuf []uint8
		switch {
		case pooled < len(inc.ubufPool) && cap(inc.ubufPool[pooled]) >= size:
			ubuf = inc.ubufPool[pooled][:size]
		case pooled < len(inc.ubufPool):
			ubuf = make([]uint8, size)
			inc.ubufPool[pooled] = ubuf
		default:
			ubuf = make([]uint8, size)
			inc.ubufPool = append(inc.ubufPool, ubuf)
		}
		pooled++
		for _, ui := range nodes {
			ri := uNodes[ui]
			m, y := fx.mustIn[ri], fx.mayIn[ri]
			um := ubuf[:colLen:colLen]
			uy := ubuf[colLen : 2*colLen : 2*colLen]
			ubuf = ubuf[2*colLen:]
			for u := 0; u < colLen; u++ {
				l := s + uint32(u)*S
				um[u] = m[l]
				uy[u] = y[l]
			}
			undo.cols = append(undo.cols, undoCol{r: ri, set: s, must: um, may: uy})
		}

		// Converge: nodes are in RPO order, so sweeping the worklist in
		// index order mirrors geom.converge.
		if cap(inc.nodeDirty) < n {
			inc.nodeDirty = make([]bool, n)
		}
		nd := inc.nodeDirty[:n]
		for i := range nd {
			nd[i] = true
		}
		outM := inc.outM[:colLen]
		outY := inc.outY[:colLen]
		for changed := true; changed; {
			changed = false
			for i := 0; i < n; i++ {
				if !nd[i] {
					continue
				}
				nd[i] = false
				iterations++
				copy(outM, colM[i*colLen:(i+1)*colLen])
				copy(outY, colY[i*colLen:(i+1)*colLen])
				inc.walkCol(uNodes[nodes[i]], s, outM, outY)
				trow := st[i*wordsS : (i+1)*wordsS]
				for w, bitsW := range trow {
					for bitsW != 0 {
						j := w*64 + bits.TrailingZeros64(bitsW)
						bitsW &= bitsW - 1
						jm := colM[j*colLen : (j+1)*colLen]
						jy := colY[j*colLen : (j+1)*colLen]
						ch := false
						// Equal 8-byte words join to themselves (max and
						// min alike): skip them wholesale — near a
						// fixpoint most of the column is already equal.
						u := 0
						for ; u+8 <= colLen; u += 8 {
							if binary.LittleEndian.Uint64(outM[u:]) == binary.LittleEndian.Uint64(jm[u:]) &&
								binary.LittleEndian.Uint64(outY[u:]) == binary.LittleEndian.Uint64(jy[u:]) {
								continue
							}
							for v := u; v < u+8; v++ {
								if w := outM[v]; w > jm[v] {
									jm[v] = w
									ch = true
								}
								if w := outY[v]; w < jy[v] {
									jy[v] = w
									ch = true
								}
							}
						}
						for ; u < colLen; u++ {
							if v := outM[u]; v > jm[u] {
								jm[u] = v
								ch = true
							}
							if v := outY[u]; v < jy[u] {
								jy[u] = v
								ch = true
							}
						}
						if ch {
							nd[j] = true
							changed = true
						}
					}
				}
			}
		}

		// Scatter the converged columns back into the full states.
		for i, ui := range nodes {
			ri := uNodes[ui]
			m, y := fx.mustIn[ri], fx.mayIn[ri]
			cm2 := colM[i*colLen : (i+1)*colLen]
			cy := colY[i*colLen : (i+1)*colLen]
			for u := 0; u < colLen; u++ {
				l := s + uint32(u)*S
				m[l] = cm2[u]
				y[l] = cy[u]
			}
			sOf[ui] = -1
		}
	}

	for _, ri := range uNodes {
		inc.uOf[ri] = -1
	}
	return iterations, evaluated, dirtyCount
}

// walkCol replays a region's accesses to set s's lines on a packed
// set column (byte u holds line s + u*numSets). Projecting the walk's
// ascending line sequence onto one set keeps the set's accesses in
// order, and accesses to other sets neither read nor write this
// column.
func (inc *Incremental) walkCol(ri int32, s uint32, colM, colY []uint8) {
	g, sp := inc.g, inc.ranges[ri]
	if !sp.ok {
		return
	}
	S := g.numSets
	for l := sp.l0 + (s+S-sp.l0%S)%S; l <= sp.l1; l += S {
		u := int((l - s) / S)
		g.mustAccessCol(colM, u)
		g.mayAccessCol(colY, u)
	}
}

// mustAccessCol is mustAccess on one set's packed column: the column
// holds exactly the accessed line's set, so the ageing loop runs over
// the whole slice.
func (g geom) mustAccessCol(st []uint8, x int) {
	h := st[x]
	if h == 0 {
		return
	}
	limit := h
	if h == absentAge {
		limit = g.mustEvict
	}
	for y, a := range st {
		if a != absentAge && a < limit {
			a++
			if a >= g.mustEvict {
				a = absentAge
			}
			st[y] = a
		}
	}
	st[x] = 0
}

// mayAccessCol is mayAccess on one set's packed column.
func (g geom) mayAccessCol(st []uint8, x int) {
	m := st[x]
	if m == 0 {
		return
	}
	limit := m
	if m == absentAge {
		if g.mayEvicts {
			limit = g.mayEvict
		} else {
			limit = absentAge // every present line ages (saturating)
		}
	}
	for y, a := range st {
		if a != absentAge && a < limit {
			if g.mayEvicts {
				a++
				if a >= g.mayEvict {
					a = absentAge
				}
			} else if a < maxAge {
				a++
			}
			st[y] = a
		}
	}
	st[x] = 0
}

// Revert restores the engine to the layout preceding the last Update,
// reinstating its converged states without re-running anything. Only
// one level of undo exists: Revert directly after Revert (or before
// any Update) errors.
func (inc *Incremental) Revert() error {
	undo := inc.undo
	if undo == nil {
		return fmt.Errorf("analysis: nothing to revert")
	}
	inc.undo = nil
	sg := inc.sg
	inc.g = undo.g
	inc.sizeScratch()
	for ri := range sg.regions {
		sg.regions[ri].addr = undo.addrs[ri]
	}
	inc.cacheRanges()
	for _, st := range undo.full {
		inc.fx.mustIn[st.r] = st.must
		inc.fx.mayIn[st.r] = st.may
	}
	S := inc.g.numSets
	for _, c := range undo.cols {
		m, y := inc.fx.mustIn[c.r], inc.fx.mayIn[c.r]
		for u, mv := range c.must {
			l := c.set + uint32(u)*S
			m[l] = mv
			y[l] = c.may[u]
		}
	}
	inc.revertLinear(undo)
	inc.lay = undo.lay
	inc.res = undo.res
	// Retire the undo for record-storage recycling; drop its pointers
	// so the spare retains no layout, result, or linear state.
	undo.lay, undo.res, undo.lin = nil, nil, nil
	inc.spare = undo
	inc.cfg.Obs.Counter("analysis.incremental_reverts").Inc()
	return nil
}
