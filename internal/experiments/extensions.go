package experiments

import (
	"fmt"

	"impact/internal/cache"
	"impact/internal/paging"
	"impact/internal/texttable"
)

// ---------------------------------------------------------------------------
// E1 — Effective access time under the section 4.2.1 timing model.
//
// The paper argues in prose that although larger blocks lower the miss
// ratio, "the effective cache access time may increase" because each
// miss transfers more words. This experiment quantifies that: cycles
// per fetch for a 2KB direct-mapped cache across block sizes, with and
// without load forwarding (critical word first).

// TimingRow holds one benchmark's effective access times per block
// size under the two repair disciplines.
type TimingRow struct {
	Name string
	// ForwardEAT and NoForwardEAT are cycles per instruction fetch
	// (1.0 = all hits) keyed by block size.
	ForwardEAT   map[int]float64
	NoForwardEAT map[int]float64
}

// ExtTimingLatency is the modelled initial memory latency in cycles.
const ExtTimingLatency = 8

// ExtTiming measures effective access time across block sizes, in one
// engine batch.
func ExtTiming(s *Suite) ([]TimingRow, error) {
	var reqs []SimRequest
	for _, p := range s.Items {
		for _, bs := range Table7BlockSizes {
			fwd := cache.Config{
				SizeBytes: 2048, BlockBytes: bs, Assoc: 1,
				Timing: &cache.TimingConfig{InitialLatency: ExtTimingLatency, CriticalWordFirst: true},
			}
			nofwd := fwd
			nofwd.Timing = &cache.TimingConfig{InitialLatency: ExtTimingLatency}
			reqs = append(reqs, SimRequest{p.OptTrace, fwd}, SimRequest{p.OptTrace, nofwd})
		}
	}
	stats, err := s.engine().Batch(reqs)
	if err != nil {
		return nil, err
	}
	out := make([]TimingRow, len(s.Items))
	for i, p := range s.Items {
		out[i] = TimingRow{
			Name:         p.Name(),
			ForwardEAT:   make(map[int]float64),
			NoForwardEAT: make(map[int]float64),
		}
		for _, bs := range Table7BlockSizes {
			out[i].ForwardEAT[bs] = stats[0].EffectiveAccessTime()
			out[i].NoForwardEAT[bs] = stats[1].EffectiveAccessTime()
			stats = stats[2:]
		}
	}
	return out, nil
}

// RenderExtTiming formats E1.
func RenderExtTiming(rows []TimingRow) string {
	headers := []string{"name"}
	for _, bs := range Table7BlockSizes {
		headers = append(headers, fmt.Sprintf("%dB fwd", bs), fmt.Sprintf("%dB nofwd", bs))
	}
	t := texttable.New(
		fmt.Sprintf("Extension E1. Effective Access Time (cycles/fetch, 2KB direct-mapped, latency %d)", ExtTimingLatency),
		headers...)
	for _, r := range rows {
		cells := []any{r.Name}
		for _, bs := range Table7BlockSizes {
			cells = append(cells, fmt.Sprintf("%.4f", r.ForwardEAT[bs]), fmt.Sprintf("%.4f", r.NoForwardEAT[bs]))
		}
		t.Row(cells...)
	}
	return t.String()
}

// ---------------------------------------------------------------------------
// E2 — Instruction paging (the paper's announced follow-up).
//
// "The IMPACT-I compiler places the effective and ineffective parts of
// the program into different pages ... when a page is transferred from
// the secondary memory to the main memory, all the bytes of that page
// are likely to be used." This experiment measures the paging
// consequences: page footprint, cold faults, and the Denning working
// set, for both layouts.

// ExtPagingPageBytes is the default modelled page size.
const ExtPagingPageBytes = 1024

// ExtPagingWindow is the working-set window in instruction fetches.
const ExtPagingWindow = 100_000

// ExtPagingConfig is the default E2 paging geometry: ExtPagingPageBytes
// pages with unbounded main memory, so faults are all cold.
func ExtPagingConfig() paging.Config {
	return paging.Config{PageBytes: ExtPagingPageBytes}
}

// PagingRow holds one benchmark's paging metrics for both layouts.
type PagingRow struct {
	Name string
	// Pages is the number of distinct pages touched (footprint).
	OptPages, NatPages int
	// Faults is the LRU demand-paging fault count (with unbounded
	// frames, equal to the footprint: cold faults only).
	OptFaults, NatFaults uint64
	// WS is the average working set in pages.
	OptWS, NatWS float64
}

// ExtPaging measures instruction paging behaviour under cfg, one task
// per benchmark on the suite's pool.
func ExtPaging(s *Suite, cfg paging.Config) ([]PagingRow, error) {
	return collect(s.engine(), len(s.Items), func(_ worker, i int) (PagingRow, error) {
		p := s.Items[i]
		so, err := paging.Simulate(cfg, p.OptTrace)
		if err != nil {
			return PagingRow{}, err
		}
		sn, err := paging.Simulate(cfg, p.NatTrace)
		if err != nil {
			return PagingRow{}, err
		}
		wo, err := paging.WorkingSet(p.OptTrace, cfg.PageBytes, ExtPagingWindow)
		if err != nil {
			return PagingRow{}, err
		}
		wn, err := paging.WorkingSet(p.NatTrace, cfg.PageBytes, ExtPagingWindow)
		if err != nil {
			return PagingRow{}, err
		}
		return PagingRow{
			Name:      p.Name(),
			OptPages:  so.PagesTouched,
			NatPages:  sn.PagesTouched,
			OptFaults: so.Faults,
			NatFaults: sn.Faults,
			OptWS:     wo,
			NatWS:     wn,
		}, nil
	})
}

// RenderExtPaging formats E2.
func RenderExtPaging(cfg paging.Config, rows []PagingRow) string {
	t := texttable.New(
		fmt.Sprintf("Extension E2. Instruction Paging (%s, %d-fetch working-set window)",
			cfg, ExtPagingWindow),
		"name", "opt pages", "nat pages", "opt faults", "nat faults", "opt WS", "nat WS")
	for _, r := range rows {
		t.Row(r.Name, r.OptPages, r.NatPages, r.OptFaults, r.NatFaults,
			fmt.Sprintf("%.1f", r.OptWS), fmt.Sprintf("%.1f", r.NatWS))
	}
	return t.String()
}

// ---------------------------------------------------------------------------
// E3 — Next-block prefetch vs. instruction placement.
//
// The paper's introduction recalls that low-bandwidth machines used
// sequential prefetch buffers (the VAX-11/780's 8-byte buffer). This
// experiment asks whether prefetch-on-miss still pays once the code
// has been placed: for well-laid-out code, sequential prefetch should
// become highly accurate (the next block usually IS the next code to
// run) but also less necessary (fewer misses to amplify).

// PrefetchRow holds one benchmark's prefetch comparison at 2KB/64B.
type PrefetchRow struct {
	Name string
	// Plain and Prefetch are the optimized layout's miss/traffic
	// without and with next-block prefetch.
	Plain, Prefetch CacheResult
	// Accuracy is the fraction of prefetched blocks used before
	// eviction.
	Accuracy float64
	// NatAccuracy is the same for the natural layout (lower sequential
	// locality, lower accuracy).
	NatAccuracy float64
}

// ExtPrefetch measures prefetch-on-miss against plain demand fetch, in
// one engine batch.
func ExtPrefetch(s *Suite) ([]PrefetchRow, error) {
	base := cache.Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 1}
	pf := base
	pf.PrefetchNext = true
	var reqs []SimRequest
	for _, p := range s.Items {
		reqs = append(reqs, SimRequest{p.OptTrace, base}, SimRequest{p.OptTrace, pf}, SimRequest{p.NatTrace, pf})
	}
	stats, err := s.engine().Batch(reqs)
	if err != nil {
		return nil, err
	}
	out := make([]PrefetchRow, len(s.Items))
	for i, p := range s.Items {
		sp, sf, sn := stats[3*i], stats[3*i+1], stats[3*i+2]
		out[i] = PrefetchRow{
			Name:        p.Name(),
			Plain:       CacheResult{Miss: sp.MissRatio(), Traffic: sp.TrafficRatio()},
			Prefetch:    CacheResult{Miss: sf.MissRatio(), Traffic: sf.TrafficRatio()},
			Accuracy:    sf.PrefetchAccuracy(),
			NatAccuracy: sn.PrefetchAccuracy(),
		}
	}
	return out, nil
}

// RenderExtPrefetch formats E3.
func RenderExtPrefetch(rows []PrefetchRow) string {
	t := texttable.New("Extension E3. Next-Block Prefetch (2KB/64B direct-mapped, optimized layout)",
		"name", "miss", "pf miss", "traffic", "pf traffic", "accuracy", "nat accuracy")
	for _, r := range rows {
		t.Row(r.Name,
			texttable.Pct3(r.Plain.Miss), texttable.Pct3(r.Prefetch.Miss),
			texttable.Pct(r.Plain.Traffic), texttable.Pct(r.Prefetch.Traffic),
			texttable.Pct(r.Accuracy), texttable.Pct(r.NatAccuracy))
	}
	return t.String()
}
