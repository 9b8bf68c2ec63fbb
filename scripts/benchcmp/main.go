// Command benchcmp is the repository's performance-regression gate:
// it compares two bench.sh JSON result files (a committed baseline
// and a fresh run) benchmark by benchmark on ns/op.
//
// Usage:
//
//	go run ./scripts/benchcmp -base BENCH_CI.json -new /tmp/bench.json \
//	    [-warn 10] [-fail 25]
//
// Per benchmark the regression is (new-base)/base in percent. Below
// -warn it is noise; at or above -warn it prints a WARN; at or above
// -fail it prints a FAIL and the command exits non-zero. Improvements
// never fail, however large. Benchmarks present on only one side are
// warned about but do not fail the gate (the suite grows; a vanished
// benchmark should be caught by review, not by a numeric gate).
//
// The files must come from the same scale and benchtime — ns/op at
// different trace scales are not comparable — so a mismatch fails
// immediately.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// results mirrors the JSON written by scripts/bench.sh.
type results struct {
	Scale      float64                       `json:"scale"`
	Benchtime  string                        `json:"benchtime"`
	Benchmarks map[string]map[string]float64 `json:"benchmarks"`
}

func load(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks recorded", path)
	}
	return &r, nil
}

func main() {
	basePath := flag.String("base", "", "baseline bench JSON (required)")
	newPath := flag.String("new", "", "fresh bench JSON (required)")
	warnPct := flag.Float64("warn", 10, "warn at this ns/op regression percentage")
	failPct := flag.Float64("fail", 25, "fail (non-zero exit) at this ns/op regression percentage")
	flag.Parse()
	if *basePath == "" || *newPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	base, err := load(*basePath)
	if err != nil {
		fatal(err)
	}
	fresh, err := load(*newPath)
	if err != nil {
		fatal(err)
	}
	if base.Scale != fresh.Scale || base.Benchtime != fresh.Benchtime {
		fatal(fmt.Errorf("incomparable runs: base scale=%g benchtime=%s, new scale=%g benchtime=%s",
			base.Scale, base.Benchtime, fresh.Scale, fresh.Benchtime))
	}

	var names []string
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	fmt.Printf("benchcmp: %s -> %s (scale %g, benchtime %s; warn %+.0f%%, fail %+.0f%%)\n",
		*basePath, *newPath, base.Scale, base.Benchtime, *warnPct, *failPct)
	failed := false
	for _, name := range names {
		b := base.Benchmarks[name]["ns/op"]
		n, ok := fresh.Benchmarks[name]
		if !ok {
			fmt.Printf("  WARN  %-24s missing from new run\n", name)
			continue
		}
		nv := n["ns/op"]
		if b <= 0 {
			fmt.Printf("  WARN  %-24s baseline ns/op is %g; skipping\n", name, b)
			continue
		}
		delta := (nv - b) / b * 100
		verdict := "ok"
		switch {
		case delta >= *failPct:
			verdict = "FAIL"
			failed = true
		case delta >= *warnPct:
			verdict = "WARN"
		}
		fmt.Printf("  %-4s  %-24s %12.0f -> %12.0f ns/op  %+7.1f%%\n", verdict, name, b, nv, delta)
	}
	var added []string
	for name := range fresh.Benchmarks {
		if _, ok := base.Benchmarks[name]; !ok {
			added = append(added, name)
		}
	}
	sort.Strings(added)
	for _, name := range added {
		fmt.Printf("  note  %-24s not in baseline\n", name)
	}
	if failed {
		fmt.Printf("benchcmp: FAIL — at least one benchmark regressed >= %.0f%%\n", *failPct)
		os.Exit(1)
	}
	fmt.Println("benchcmp: ok")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcmp:", err)
	os.Exit(1)
}
