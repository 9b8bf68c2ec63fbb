package sweep

import (
	"reflect"
	"sync"
	"testing"

	"impact/internal/cache"
	"impact/internal/memtrace"
)

// equalDerived fails unless every statistic derivable from the two
// passes is identical: the raw histogram/cold/group counts and the
// miss and exec-word curves across every associativity the trace can
// distinguish (plus a margin into the flat tail, which exercises the
// ∞ claims). The exec difference arrays themselves may be segmented
// differently — the sharded merge splits ranges at band breakpoints —
// so the comparison is over derived values, which is all Stats reads.
func equalDerived(t *testing.T, want, got *StackPass) {
	t.Helper()
	if want.accesses != got.accesses || want.groups != got.groups || want.cold != got.cold {
		t.Fatalf("accesses/groups/cold = %d/%d/%d, want %d/%d/%d",
			got.accesses, got.groups, got.cold, want.accesses, want.groups, want.cold)
	}
	if !reflect.DeepEqual(want.hist, got.hist) {
		t.Fatalf("hist = %v, want %v", got.hist, want.hist)
	}
	for assoc := 1; assoc <= len(want.hist)+4; assoc++ {
		if w, g := want.MissesAt(assoc), got.MissesAt(assoc); w != g {
			t.Fatalf("MissesAt(%d) = %d, want %d", assoc, g, w)
		}
		if w, g := want.execWordsAt(assoc), got.execWordsAt(assoc); w != g {
			t.Fatalf("execWordsAt(%d) = %d, want %d", assoc, g, w)
		}
	}
}

// shardGeoms spans the geometries of the paper's tables: the Table 1
// fully-associative sweeps (one set — the serial fallback), the
// Table 6/7 direct-mapped size ladder, and the Table 8 associativity
// column's shared small-set shapes.
var shardGeoms = []struct{ block, sets int }{
	{16, 1}, {64, 1}, {128, 1},
	{64, 8}, {64, 16}, {64, 32}, {64, 64}, {64, 256},
	{32, 8}, {16, 32}, {128, 4},
}

// shardPass streams tr through a ShardStream over `workers` band
// workers and returns the merged pass.
func shardPass(t *testing.T, tr *memtrace.Trace, block, sets, workers int) *StackPass {
	t.Helper()
	s, err := NewShardStream(block, sets, workers, nil)
	if err != nil {
		t.Fatalf("NewShardStream(%d, %d sets, %d workers): %v", block, sets, workers, err)
	}
	tr.Replay(s)
	return s.Pass()
}

// TestShardRunMatchesSerial runs whole traces through the banded stack
// pass across the paper's geometries and several worker counts; every
// derived statistic must equal the serial pass's.
func TestShardRunMatchesSerial(t *testing.T) {
	for _, g := range shardGeoms {
		tr := genTrace(uint64(g.block*1000+g.sets), 2500)
		want, err := Run(tr, g.block, g.sets)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 4, 7, 16} {
			equalDerived(t, want, shardPass(t, tr, g.block, g.sets, workers))
		}
	}
}

func TestShardStreamMatchesSerial(t *testing.T) {
	tr := genTrace(23, 2600)
	want, err := Run(tr, 64, 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 5} {
		s, err := NewShardStream(64, 32, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		tr.Replay(s)
		got := s.Pass()
		equalDerived(t, want, got)
		if s.Pass() != got {
			t.Fatal("repeated Pass returned a different merge")
		}
	}
	// The workers=1 stream IS a serial StreamPass underneath.
	s, err := NewShardStream(64, 32, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr.Replay(s)
	if !reflect.DeepEqual(want, s.Pass()) {
		t.Fatal("workers=1 stream differs from serial pass")
	}
}

func TestShardStreamStats(t *testing.T) {
	// End to end against the sequential simulator across Table 8's
	// associativity column (32/16/8 sets at 2KB) in one sharded pass
	// per geometry.
	tr := genTrace(97, 3000)
	for _, tc := range []struct{ sets, assoc int }{{32, 1}, {16, 2}, {8, 4}} {
		p := shardPass(t, tr, 64, tc.sets, 4)
		diffConfig(t, p, cache.Config{SizeBytes: 2048, BlockBytes: 64, Assoc: tc.assoc}, tr)
		diffConfig(t, p, cache.Config{SizeBytes: 4096, BlockBytes: 64, Assoc: 2 * tc.assoc}, tr)
	}
}

func TestShardStreamSerialFallback(t *testing.T) {
	tr := genTrace(5, 800)
	want, err := Run(tr, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	// workers < 2 and single-set geometries take the exact serial code
	// path: the result is structurally identical, difference arrays
	// included.
	for _, workers := range []int{0, 1} {
		if got := shardPass(t, tr, 64, 8, workers); !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d fallback differs from serial pass", workers)
		}
	}
	want1, err := Run(tr, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got1 := shardPass(t, tr, 64, 1, 8); !reflect.DeepEqual(want1, got1) {
		t.Fatal("single-set geometry did not fall back to the serial pass")
	}
}

func TestShardRunRejectsBadGeometry(t *testing.T) {
	for _, tc := range []struct{ block, sets int }{
		{0, 2}, {3, 2}, {512, 2}, {64, 6},
	} {
		if _, err := NewShardStream(tc.block, tc.sets, 2, nil); err == nil {
			t.Errorf("NewShardStream(%d, %d) accepted", tc.block, tc.sets)
		}
	}
}

func TestShardStreamRejectsBadGeometry(t *testing.T) {
	if _, err := NewShardStream(3, 8, 2, nil); err == nil {
		t.Error("bad block size accepted")
	}
	if _, err := NewShardStream(64, 5, 2, nil); err == nil {
		t.Error("bad set count accepted")
	}
}

// TestShardStreamSerialZeroAlloc extends the zero-alloc guard to the
// sharded stack pass's single-worker fallback: the Run path must be
// exactly the serial StreamPass loop, with no wrapper allocations.
func TestShardStreamSerialZeroAlloc(t *testing.T) {
	tr := genTrace(43, 2000)
	s, err := NewShardStream(64, 8, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr.Replay(s) // warm: grows stacks and histogram
	avg := testing.AllocsPerRun(10, func() {
		tr.Replay(s)
	})
	if avg != 0 {
		t.Errorf("steady-state fallback Run allocates %.1f times per replay, want 0", avg)
	}
}

// TestShardStress drives concurrent sharded streams; its value is
// under `go test -race`, where it pins the worker pools' memory
// discipline (shared read-only slabs, per-band private state).
func TestShardStress(t *testing.T) {
	tr := genTrace(71, 1200)
	want, err := Run(tr, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := NewShardStream(64, 16, 2+i, nil)
			if err != nil {
				t.Error(err)
				return
			}
			tr.Replay(s)
			equalDerived(t, want, s.Pass())
		}(i)
	}
	wg.Wait()
}

// FuzzShardBands varies the band/worker count against the serial
// referee on arbitrary traces: for every geometry, a sharded pass
// with 2..9 workers must derive exactly the serial pass's statistics.
func FuzzShardBands(f *testing.F) {
	f.Add([]byte{}, uint8(2))
	f.Add([]byte{0, 0, 0, 0}, uint8(3))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF}, uint8(9))
	f.Fuzz(func(t *testing.T, data []byte, workers uint8) {
		w := int(workers%8) + 2
		tr := decodeTrace(data)
		for _, g := range []struct{ block, sets int }{{16, 8}, {64, 32}, {32, 4}} {
			want, err := Run(tr, g.block, g.sets)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewShardStream(g.block, g.sets, w, nil)
			if err != nil {
				t.Fatal(err)
			}
			tr.Replay(s)
			equalDerived(t, want, s.Pass())
		}
	})
}
