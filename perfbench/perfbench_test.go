package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"impact/internal/cache"
	"impact/internal/memtrace"
)

// TestRefDirectMappedMatchesSimulate pins the reference replay to the
// simulator on a hand-built trace: runs inside one block, runs spanning
// several blocks, a run longer than the cache (it evicts its own head),
// conflicting addresses one cache size apart, and a repeated loop.
func TestRefDirectMappedMatchesSimulate(t *testing.T) {
	var tr memtrace.Trace
	for _, r := range []memtrace.Run{
		{Addr: 0, Bytes: 8},
		{Addr: 100, Bytes: 200},
		{Addr: 2048, Bytes: 64},
		{Addr: 0, Bytes: 4},
		{Addr: 4096, Bytes: 3000},
		{Addr: 60, Bytes: 8},
		{Addr: 512, Bytes: 40}, {Addr: 600, Bytes: 12}, {Addr: 512, Bytes: 40}, {Addr: 600, Bytes: 12},
		{Addr: 1 << 20, Bytes: 4},
	} {
		tr.Run(r)
	}
	for _, g := range [][2]int{{512, 16}, {512, 64}, {2048, 64}, {1024, 128}} {
		st, err := cache.Simulate(cache.Config{SizeBytes: g[0], BlockBytes: g[1], Assoc: 1}, &tr)
		if err != nil {
			t.Fatal(err)
		}
		m, a := refDirectMapped(&tr, g[0], g[1])
		if m != st.Misses || a != st.Accesses {
			t.Errorf("%dB/%dB: reference %d misses of %d, simulator %d of %d", g[0], g[1], m, a, st.Misses, st.Accesses)
		}
	}
}

func TestSelfSecondsNested(t *testing.T) {
	s := func(id, parent int, name string, lo, hi int) span {
		return span{ID: id, Parent: parent, Name: name, Start: time.Duration(lo) * time.Second, End: time.Duration(hi) * time.Second}
	}
	spans := []span{
		s(1, 0, "root", 0, 10),
		s(2, 1, "a", 1, 4),
		s(3, 1, "b", 3, 6), // overlaps a: the union [1,6] counts once
		s(4, 2, "leaf", 2, 3),
		s(5, 1, "b", 9, 12), // runs past its parent: clipped to [9,10]
		s(6, 0, "root", 20, 21),
	}
	got := selfSeconds(spans)
	want := map[string]float64{
		"root": 10 - 5 - 1 + 1, // [1,6] and [9,10] covered, plus the second root
		"a":    3 - 1,
		"b":    3 + 3,
		"leaf": 1,
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("self(%s) = %v, want %v", k, got[k], v)
		}
	}
}

func TestRecorderNestsSpans(t *testing.T) {
	r := newRecorder(true, "test")
	outer := r.begin("outer")
	inner := r.begin("inner")
	inner()
	outer()
	r.begin("next")()
	if len(r.spans) != 3 || r.spans[1].Parent != r.spans[0].ID || r.spans[2].Parent != 0 {
		t.Fatalf("spans %+v", r.spans)
	}
	off := newRecorder(false, "off")
	off.begin("x")()
	if len(off.spans) != 0 {
		t.Fatal("disabled recorder recorded a span")
	}
}

func TestPackageBucket(t *testing.T) {
	for fn, want := range map[string]string{
		"impact/internal/cache.(*Cache).accessGroupDM":   "cache",
		"impact/internal/cache/sweep.(*StackPass).Stats": "sweep",
		"impact/internal/core/inline.Expand":             "inline",
		"impact/internal/profile.(*Collector).TakeArc":   "profile",
		"runtime.mallocgc":                               "runtime",
		"internal/runtime/maps.(*Map).getWithKey":        "runtime",
		"main.frontEnd":                                  "perfbench",
		"sort.Slice":                                     "other",
		"impact/internal/newpkg.F":                       "other",
	} {
		if got := packageBucket(fn); got != want {
			t.Errorf("packageBucket(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestMetricNames checks every printed metric name and unit against
// the benchmark contract, and that BENCHMARK.json lists exactly the
// metrics the harness prints.
func TestMetricNames(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), layerMetrics()...) {
		if !nameRE.MatchString(m.name) || !unitRE.MatchString(m.unit) || seen[m.name] {
			t.Errorf("bad or duplicate metric %q (%q)", m.name, m.unit)
		}
		seen[m.name] = true
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, harness prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), harness %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, layerMetrics())
}
