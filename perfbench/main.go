// Command perfbench is the reproduction's cold, seeded, layered
// benchmark. Run it from the repository root:
//
//	bash perfbench/run.sh --workload reproduce --seed 1 --seconds 30 --trace 0
//
// It runs the named workload cold, again and again for the given
// number of seconds, each time in a fresh process with an empty memo,
// on the benchmark suite generated from the seed. It times every
// process from outside, checks the outputs, and prints the medians of
// the end-to-end metrics (--trace 0) or the per-layer metrics of
// traced runs (--trace 1), with units, as the last line of standard
// output: {"correct", "attempted", "failed", "metrics"}. LAYERS.md maps
// each layer metric to the end-to-end metric and workload it moves.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of untraced runs.
var endToEnd = []metricDef{
	{"wall_s", "s"}, {"setup_s", "s"}, {"run_s", "s"}, {"cpu_s", "s"},
	{"peak_rss_mb", "MB"}, {"miss_pct", "%"},
}

// digestsJSON holds the SHA-256 of every rendered table, per workload
// and seed, as recorded with -record-digests.
//
//go:embed digests.json
var digestsJSON []byte

type digestBook map[string]map[string]map[string]string // workload -> seed -> table -> sha256

// workDir holds span dumps and scratch trace files, inside the
// checkout the benchmark runs in.
const workDir = ".bench_build/perfbench"

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(harnessMain(os.Args[1:], os.Stdout))
}

// childRun is one finished child process.
type childRun struct {
	traced bool
	wall   float64
	cpu    float64
	rssMB  float64
	rep    childReport
}

// harnessMain runs the cold runs of one benchmark invocation and
// writes the summary, the manifest and the result line to stdout.
func harnessMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: reproduce, simulate or analyze")
	seed := fs.Uint64("seed", 0, "workload seed (0 is the paper's calibrated suite)")
	seconds := fs.Int("seconds", 30, "how long to keep starting cold runs")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics of traced runs")
	record := fs.String("record-digests", "", "re-record table digests for the comma-separated seeds into perfbench/digests.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *record != "" {
		return recordDigests(*record)
	}
	if _, ok := workloads[*name]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload reproduce|simulate|analyze, --seconds >= 1, --trace 0|1")
		return 2
	}
	var book digestBook
	if err := json.Unmarshal(digestsJSON, &book); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: digests.json:", err)
		return 1
	}

	var runs []childRun
	start := time.Now()
	for i := 0; ; i++ {
		traced := *trace == 1 && i%2 == 1
		if time.Since(start) >= time.Duration(*seconds)*time.Second && enough(runs, *trace == 1) {
			break
		}
		r, err := runChild(*name, *seed, traced)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		runs = append(runs, r)
	}

	attempted, failed, failures := verify(runs, book[*name][strconv.FormatUint(*seed, 10)])
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	metrics := map[string]map[string]any{}
	put := func(name, unit string, v float64) {
		metrics[name] = map[string]any{"value": v, "unit": unit}
	}
	untraced := pick(runs, false)
	if *trace == 0 {
		values := map[string][]float64{}
		for _, r := range untraced {
			for k, v := range map[string]float64{
				"wall_s": r.wall, "setup_s": r.rep.SetupS, "run_s": r.rep.RunS, "cpu_s": r.cpu,
				"peak_rss_mb": r.rssMB, "miss_pct": r.rep.MissPct,
			} {
				values[k] = append(values[k], v)
			}
		}
		fmt.Fprintf(stdout, "perfbench: workload %s, seed %d, %d cold runs\n", *name, *seed, len(untraced))
		for _, m := range endToEnd {
			v := values[m.name]
			put(m.name, m.unit, median(v))
			fmt.Fprintf(stdout, "  %-12s %12.4f %-3s (median; min %.4f, max %.4f)\n", m.name, median(v), m.unit, slices.Min(v), slices.Max(v))
		}
	} else {
		traced := pick(runs, true)
		layers := map[string][]float64{}
		for _, r := range traced {
			for k, v := range r.rep.Layers {
				layers[k] = append(layers[k], v)
			}
		}
		var tw, uw []float64
		for _, r := range traced {
			tw = append(tw, r.wall)
		}
		for _, r := range untraced {
			uw = append(uw, r.wall)
		}
		layers["trace_overhead_ratio"] = []float64{median(tw) / median(uw)}
		fmt.Fprintf(stdout, "perfbench: workload %s, seed %d, %d traced and %d untraced cold runs\n", *name, *seed, len(traced), len(untraced))
		for _, m := range layerMetrics() {
			v, ok := layers[m.name]
			if !ok {
				fmt.Fprintln(os.Stderr, "perfbench: traced run did not report", m.name)
				return 1
			}
			put(m.name, m.unit, median(v))
			fmt.Fprintf(stdout, "  %-34s %14.6g %s\n", m.name, median(v), m.unit)
		}
	}
	ratio := 0.0
	if attempted > 0 {
		ratio = float64(failed) / float64(attempted)
	}
	fmt.Fprintf(stdout, "  %-12s %12.4f ratio (%d failed of %d checks)\n", "fail_ratio", ratio, failed, attempted)
	man, err := json.Marshal(map[string]any{"harness_argv": os.Args, "run": runs[0].rep.Manifest})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "manifest: %s\n", man)
	out, err := json.Marshal(map[string]any{
		"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// enough reports whether the runs so far give every statistic at least
// one sample: one untraced run, plus one traced run in trace mode.
func enough(runs []childRun, traceMode bool) bool {
	return len(pick(runs, false)) > 0 && (!traceMode || len(pick(runs, true)) > 0)
}

func pick(runs []childRun, traced bool) []childRun {
	var out []childRun
	for _, r := range runs {
		if r.traced == traced {
			out = append(out, r)
		}
	}
	return out
}

// verify totals the checks: each run's own checks, one check per run
// that its table digests and miss_pct equal the first run's, and one
// per table digest recorded for this workload and seed.
func verify(runs []childRun, recorded map[string]string) (attempted, failed int, failures []string) {
	first := runs[0].rep
	for i, r := range runs {
		attempted += r.rep.Attempted
		failed += r.rep.Failed
		failures = append(failures, r.rep.Failures...)
		if i > 0 {
			attempted++
			if !maps.Equal(r.rep.Digests, first.Digests) || r.rep.MissPct != first.MissPct {
				failed++
				failures = append(failures, fmt.Sprintf("run %d: outputs differ from run 0", i))
			}
		}
		for _, table := range sortedKeys(recorded) {
			attempted++
			if got := r.rep.Digests[table]; got != recorded[table] {
				failed++
				failures = append(failures, fmt.Sprintf("run %d: %s digest %.12s, recorded %.12s", i, table, got, recorded[table]))
			}
		}
	}
	return attempted, failed, failures
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// runChild starts one cold run in a fresh process and measures its
// wall time, CPU time and peak RSS from outside. The child gets
// GOMAXPROCS = nproc and no IMPACT_* tuning variables.
func runChild(name string, seed uint64, traced bool) (childRun, error) {
	self, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return childRun{}, err
	}
	tmp, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return childRun{}, err
	}
	defer os.RemoveAll(tmp)
	env, cleared := childEnv()
	cmd := exec.Command(self, "child", "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-trace="+strconv.FormatBool(traced), "-tmp", tmp, "-spans", workDir, "-cleared", strings.Join(cleared, ","))
	cmd.Env = env
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	err = cmd.Run()
	wall := time.Since(t0).Seconds()
	if err != nil {
		return childRun{}, fmt.Errorf("%s seed %d run: %w", name, seed, err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return childRun{}, errors.New("no resource usage for the child process")
	}
	r := childRun{
		traced: traced,
		wall:   wall,
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds(),
		rssMB:  float64(ru.Maxrss) / 1024, // Linux reports KiB
	}
	if err := json.Unmarshal(stdout.Bytes(), &r.rep); err != nil {
		return childRun{}, fmt.Errorf("%s seed %d: decoding child report: %w", name, seed, err)
	}
	return r, nil
}

// childEnv returns the harness environment without IMPACT_* tuning
// variables and with GOMAXPROCS pinned to the CPU count, plus the
// names it removed.
func childEnv() (env, cleared []string) {
	for _, kv := range os.Environ() {
		key := kv[:max(strings.IndexByte(kv, '='), 0)]
		switch {
		case strings.HasPrefix(key, "IMPACT_"):
			cleared = append(cleared, key)
		case key == "GOMAXPROCS":
		default:
			env = append(env, kv)
		}
	}
	return append(env, "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU())), cleared
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// recordDigests runs each workload once per seed and rewrites
// perfbench/digests.json with the table digests the runs produced.
func recordDigests(seedList string) int {
	book := digestBook{}
	for _, name := range sortedKeys(workloads) {
		book[name] = map[string]map[string]string{}
		for _, s := range strings.Split(seedList, ",") {
			seed, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: bad seed:", err)
				return 2
			}
			r, err := runChild(name, seed, false)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				return 1
			}
			if r.rep.Failed > 0 {
				fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: recording despite failed checks %v\n", name, seed, r.rep.Failures)
			}
			book[name][strconv.FormatUint(seed, 10)] = r.rep.Digests
			fmt.Fprintf(os.Stderr, "recorded %s seed %d (%.1fs)\n", name, seed, r.wall)
		}
	}
	data, err := json.MarshalIndent(book, "", " ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.WriteFile(filepath.Join("perfbench", "digests.json"), append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}
