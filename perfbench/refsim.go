package main

import "impact/internal/memtrace"

// refDirectMapped replays tr through a direct-mapped, whole-block-fill
// cache of sizeBytes with blockBytes blocks and returns the miss and
// access counts. It is the benchmark's own reference for the
// simulator: a fetch misses when its block is not the one resident in
// the block's set.
func refDirectMapped(tr *memtrace.Trace, sizeBytes, blockBytes int) (misses, accesses uint64) {
	sets := uint32(sizeBytes / blockBytes)
	blockWords := uint32(blockBytes / memtrace.WordBytes)
	resident := make([]uint32, sets)
	valid := make([]bool, sets)
	for _, r := range tr.Runs {
		w0, w1 := r.WordRange()
		if w1 <= w0 {
			continue
		}
		accesses += uint64(w1 - w0)
		for b := w0 / blockWords; b <= (w1-1)/blockWords; b++ {
			s := b % sets
			if !valid[s] || resident[s] != b {
				valid[s], resident[s] = true, b
				misses++
			}
		}
	}
	return misses, accesses
}
