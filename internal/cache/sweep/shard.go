package sweep

import (
	"fmt"
	"sync"

	"impact/internal/memtrace"
	"impact/internal/obs"
)

// This file shards ONE Mattson stack pass across workers by cache set
// index. Per-set LRU stacks are fully independent — a lookup ages only
// its own set's stack — so W workers can each walk the full trace
// restricted to a band of sets and produce per-band distance
// histograms whose elementwise sum is bit-identical to the serial
// pass's (every block lookup lands in exactly one band, at exactly the
// depth the serial stack gives it). Cold counts and group counts merge
// by summation and accesses are identical in every band.
//
// The avg.exec accounting needs one extra structure. Within one
// sequential run, the serial pass's exec contribution at associativity
// A telescopes to runWords − firstMissPos(A): a non-increasing step
// function of A, recorded as the claim ranges StreamPass.Run emits
// (each miss at depth D claims the associativities (maxcov, D−1], a
// cold lookup claims [maxcov+1, ∞)). A band worker sees only its own
// sets' lookups, so it records the band-local step function
// f_b(A) = runWords − firstInBandMissPos_b(A). Since every lookup
// belongs to exactly one band, the global first miss position is the
// minimum over bands and therefore the global step function is the
// pointwise MAXIMUM of the band functions. Each band records its
// claims per run (bandStream); the merge walks the bands' claim lists
// breakpoint by breakpoint and re-emits the maximum as ordinary
// addRange/addInf segments. The representation of the difference
// arrays can differ from the serial pass's (segments split at band
// breakpoints), but every derived statistic — execWordsAt, and hence
// Stats — is identical; the differential and fuzz tests in
// shard_test.go are the referee.

// bandClaim is one exec claim of a band-restricted stack pass: the
// run's contribution runWords−pos applies to associativities
// [previous claim's hi + 1, hi], with hi < 0 meaning ∞ (a cold
// lookup's claim).
type bandClaim struct {
	hi int32
	w  uint32
}

// bandStream is a StreamPass restricted to the cache sets [lo, hi):
// only block lookups whose set falls in the band touch the stacks,
// with an O(1)-per-crossing skip-ahead over out-of-band blocks. It
// records per-run exec claims instead of folding them into the
// difference arrays, so mergeBands can reconstruct the exact global
// step function.
type bandStream struct {
	p      *StackPass
	stacks [][]uint32
	sets   uint32
	lo, hi uint32
	claims []bandClaim
	runOff []uint32 // claims consumed after each non-empty run
}

func newBandStream(blockBytes, numSets int, lo, hi uint32) *bandStream {
	return &bandStream{
		p: &StackPass{
			blockBytes: blockBytes,
			numSets:    numSets,
			blockWords: uint32(blockBytes / memtrace.WordBytes),
		},
		stacks: make([][]uint32, numSets),
		sets:   uint32(numSets),
		lo:     lo,
		hi:     hi,
	}
}

// Run accumulates one canonical run's in-band lookups (see
// StreamPass.Run for the claim logic it mirrors).
func (s *bandStream) Run(r memtrace.Run) {
	p := s.p
	w0, w1 := r.WordRange()
	if w1 <= w0 {
		return
	}
	runWords := w1 - w0
	p.accesses += uint64(runWords)
	maxcov := 0
	coldSeen := false
	for w := w0; w < w1; {
		mb := w / p.blockWords
		set := mb % s.sets
		if set < s.lo || set >= s.hi {
			// Skip to the first word of the next in-band block, in
			// uint64 (the next block index can overflow the 32-bit word
			// space on runs near the top of the address range).
			next := mb + (s.lo - set)
			if set >= s.lo {
				next = mb + (s.sets - set) + s.lo
			}
			nw := uint64(next) * uint64(p.blockWords)
			if nw >= uint64(w1) {
				break
			}
			w = uint32(nw)
			continue
		}
		gEnd := (mb + 1) * p.blockWords
		if gEnd > w1 {
			gEnd = w1
		}
		st := s.stacks[set]
		depth := 0
		for i, b := range st {
			if b == mb {
				depth = i + 1
				break
			}
		}
		p.groups++
		if !coldSeen {
			contrib := uint32(runWords - (w - w0))
			if depth == 0 {
				s.claims = append(s.claims, bandClaim{hi: -1, w: contrib})
				coldSeen = true
			} else if depth-1 > maxcov {
				s.claims = append(s.claims, bandClaim{hi: int32(depth - 1), w: contrib})
				maxcov = depth - 1
			}
		}
		if depth == 0 {
			p.cold++
			st = append(st, 0)
			copy(st[1:], st[:len(st)-1])
			st[0] = mb
			s.stacks[set] = st
		} else {
			for len(p.hist) < depth {
				p.hist = append(p.hist, 0)
			}
			p.hist[depth-1]++
			copy(st[1:depth], st[:depth-1])
			st[0] = mb
		}
		w = gEnd
	}
	s.runOff = append(s.runOff, uint32(len(s.claims)))
}

// mergeBands folds per-band passes into one StackPass bit-identical
// (in every derived statistic) to a serial pass over the same runs.
func mergeBands(bands []*bandStream) *StackPass {
	first := bands[0].p
	out := &StackPass{
		blockBytes: first.blockBytes,
		numSets:    first.numSets,
		blockWords: first.blockWords,
		accesses:   first.accesses, // identical in every band
	}
	for _, b := range bands {
		p := b.p
		out.groups += p.groups
		out.cold += p.cold
		for len(out.hist) < len(p.hist) {
			out.hist = append(out.hist, 0)
		}
		for d, n := range p.hist {
			out.hist[d] += n
		}
	}

	// Exec merge: per run, walk the bands' claim lists in parallel and
	// emit the pointwise maximum as segments. cursors index each band's
	// claim list; starts tracks where each band's current run begins.
	nRuns := len(bands[0].runOff)
	cursors := make([]int, len(bands))
	ends := make([]int, len(bands))
	const noBound = int(^uint32(0) >> 1) // max int32: hi fits int32
	for run := 0; run < nRuns; run++ {
		for b, bs := range bands {
			ends[b] = int(bs.runOff[run])
		}
		a := 1
		for {
			var val uint32
			next := noBound
			for b, bs := range bands {
				// Pass finite claims that end below a; claims are
				// contiguous from associativity 1, so the surviving claim
				// (if any) covers a.
				for cursors[b] < ends[b] && bs.claims[cursors[b]].hi >= 0 && int(bs.claims[cursors[b]].hi) < a {
					cursors[b]++
				}
				if cursors[b] >= ends[b] {
					continue
				}
				c := bs.claims[cursors[b]]
				if c.w > val {
					val = c.w
				}
				if c.hi >= 0 && int(c.hi)+1 < next {
					next = int(c.hi) + 1
				}
			}
			if val == 0 {
				// Every band is exhausted (claim contributions are ≥ 1).
				break
			}
			if next == noBound {
				// Only ∞ claims remain active: the tail of the step
				// function, exactly the global cold lookup's contribution.
				out.addInf(a, int64(val))
				break
			}
			out.addRange(a, next-1, int64(val))
			a = next
		}
		// Park every cursor at the run's end for the next iteration.
		for b := range cursors {
			cursors[b] = ends[b]
		}
	}
	return out
}

// shardBands clamps the worker count to the set count and returns the
// contiguous band bounds, or nil when sharding cannot pay (fewer than
// two bands).
func shardBands(numSets, workers int) [][2]uint32 {
	if workers > numSets {
		workers = numSets
	}
	if workers < 2 {
		return nil
	}
	bands := make([][2]uint32, workers)
	for wk := 0; wk < workers; wk++ {
		bands[wk] = [2]uint32{
			uint32(wk * numSets / workers),
			uint32((wk + 1) * numSets / workers),
		}
	}
	return bands
}

// shardSlabRuns batches runs between the streaming producer and the
// band workers; one channel send per slab keeps the per-run overhead
// negligible.
const shardSlabRuns = 1024

// ShardStream is the sharded stack pass: a memtrace.Sink that
// broadcasts canonical runs to one band worker per set band, so a trace
// generated live, read from a file or replayed from memory is swept in
// parallel without being materialized again. With fewer than two
// effective bands (workers < 2, or a single-set geometry) it degrades
// to exactly the serial StreamPass — the Run path is a single
// forwarded call with no extra allocations. One-shot: after Pass
// returns, further Run calls are not allowed.
type ShardStream struct {
	serial *StreamPass
	bands  []*bandStream
	chans  []chan []memtrace.Run
	wg     sync.WaitGroup
	slab   []memtrace.Run
	merged *StackPass
}

// NewShardStream validates the geometry (exactly like NewStream) and
// returns a streaming sharded pass over `workers` band workers. reg
// (which may be nil) attributes each worker to a shard-worker-N lane.
func NewShardStream(blockBytes, numSets, workers int, reg *obs.Registry) (*ShardStream, error) {
	serial, err := NewStream(blockBytes, numSets)
	if err != nil {
		return nil, err
	}
	bounds := shardBands(numSets, workers)
	if bounds == nil {
		return &ShardStream{serial: serial}, nil
	}
	s := &ShardStream{
		bands: make([]*bandStream, len(bounds)),
		chans: make([]chan []memtrace.Run, len(bounds)),
		slab:  make([]memtrace.Run, 0, shardSlabRuns),
	}
	for wk := range s.bands {
		b := newBandStream(blockBytes, numSets, bounds[wk][0], bounds[wk][1])
		ch := make(chan []memtrace.Run, 4)
		s.bands[wk] = b
		s.chans[wk] = ch
		s.wg.Add(1)
		go func(wk int) {
			defer s.wg.Done()
			lane := reg.NewLane(fmt.Sprintf("shard-worker-%d", wk))
			sp := reg.SpanOn(lane, "sweep/shard")
			sp.SetAttrInt("sets_lo", int64(b.lo))
			sp.SetAttrInt("sets_hi", int64(b.hi))
			for slab := range ch {
				for _, r := range slab {
					b.Run(r)
				}
			}
			sp.End()
		}(wk)
	}
	return s, nil
}

// Run accumulates one canonical run (see StreamPass.Run for the
// canonical-form requirement).
func (s *ShardStream) Run(r memtrace.Run) {
	if s.serial != nil {
		s.serial.Run(r)
		return
	}
	s.slab = append(s.slab, r)
	if len(s.slab) == shardSlabRuns {
		s.flush()
	}
}

// flush broadcasts the current slab to every band worker. The workers
// only read the shared slice; a fresh slab backs subsequent runs.
func (s *ShardStream) flush() {
	if len(s.slab) == 0 {
		return
	}
	slab := s.slab
	for _, ch := range s.chans {
		ch <- slab
	}
	s.slab = make([]memtrace.Run, 0, shardSlabRuns)
}

// Pass drains the workers and returns the merged statistics,
// equivalent in every derived statistic to a serial StreamPass over
// the same runs. Unlike StreamPass.Pass it is terminal: the band
// workers have exited when it returns, so the stream accepts no
// further runs (repeated calls return the same merged pass).
func (s *ShardStream) Pass() *StackPass {
	if s.serial != nil {
		return s.serial.Pass()
	}
	if s.merged == nil {
		s.flush()
		for _, ch := range s.chans {
			close(ch)
		}
		s.wg.Wait()
		s.merged = mergeBands(s.bands)
	}
	return s.merged
}
