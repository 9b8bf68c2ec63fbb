package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"

	"impact/internal/experiments"
	"impact/internal/obs"
	"impact/internal/workload"
	"impact/internal/xrand"
)

// childReport is what one cold run of a workload tells the harness.
// The harness adds what only an outside observer can measure: wall
// time, CPU time and peak RSS of the process.
type childReport struct {
	Manifest  manifest           `json:"manifest"`
	SetupS    float64            `json:"setup_s"`
	RunS      float64            `json:"run_s"`
	MissPct   float64            `json:"miss_pct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Digests   map[string]string  `json:"digests"`
	Layers    map[string]float64 `json:"layers,omitempty"`
}

// manifest records what produced a result.
type manifest struct {
	Argv       []string       `json:"argv"`
	Workload   string         `json:"workload"`
	Seed       uint64         `json:"seed"`
	Scale      float64        `json:"scale"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NProc      int            `json:"nproc"`
	Workers    map[string]int `json:"workers"`
	GoVersion  string         `json:"go_version"`
	Revision   string         `json:"vcs_revision"`
	Modified   string         `json:"vcs_modified"`
	// ImpactEnvCleared lists the IMPACT_* tuning variables the harness
	// removed from the run's environment; ImpactEnvLeft must be empty.
	ImpactEnvCleared []string `json:"impact_env_cleared"`
	ImpactEnvLeft    []string `json:"impact_env_left"`
	Traced           bool     `json:"traced"`
}

// runCtx is the state of one cold run.
type runCtx struct {
	workload string
	seed     uint64
	scale    float64
	workers  int
	traced   bool
	tmpDir   string

	rec   *recorder
	reg   *obs.Registry // nil unless traced
	suite *experiments.Suite
	rep   childReport

	// results kept from the run phase for the checks and layers.
	table6 []experiments.Table6Row
	files  []traceFile
	// ownSimAccesses counts the accesses the harness itself simulated.
	ownSimAccesses uint64
	searched       []experiments.SearchRow
	bounds         []experiments.BoundRow
	pages          []experiments.PageBoundRow
	frontEnd       frontEndWork
	layers         map[string]float64
}

// check records one output check.
func (c *runCtx) check(ok bool, format string, args ...any) {
	c.rep.Attempted++
	if !ok {
		c.rep.Failed++
		if len(c.rep.Failures) < 20 {
			c.rep.Failures = append(c.rep.Failures, fmt.Sprintf(format, args...))
		}
	}
}

// table runs one experiment, records its span and the SHA-256 of its
// rendered text.
func (c *runCtx) table(name string, f func() (string, error)) error {
	end := c.rec.begin("table." + name)
	out, err := f()
	end()
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	sum := sha256.Sum256([]byte(out))
	c.rep.Digests[name] = hex.EncodeToString(sum[:])
	return nil
}

// seededSuite builds the ten calibrated benchmark models at scale.
// Seed 0 keeps the paper's profiling inputs. Any other seed n replaces
// one profiling input of every model, the one at index n mod runs,
// with a new input derived from n through xrand.Seed. The programs and
// their evaluation inputs stay fixed, so every seed asks for nearly the
// same amount of work. A model that fails to build is a failed check
// and is left out of the suite.
func (c *runCtx) seededSuite() []*workload.Benchmark {
	end := c.rec.begin("workload.build")
	defer end()
	var out []*workload.Benchmark
	for _, p := range workload.SuiteParams() {
		p.TargetInstrs = max(uint64(float64(p.TargetInstrs)*c.scale), 50_000)
		b, err := workload.Build(p)
		c.check(err == nil, "build %s: %v", p.Name, err)
		if err != nil {
			continue
		}
		if c.seed != 0 {
			i := c.seed % uint64(len(b.ProfileSeeds))
			b.ProfileSeeds[i] = xrand.Seed(b.ProfileSeeds[i], c.seed)
		}
		out = append(out, b)
	}
	return out
}

// prepare runs the compiler pipeline over the seeded suite.
func (c *runCtx) prepare() error {
	benches := c.seededSuite()
	end := c.rec.begin("prepare")
	suite, err := experiments.PrepareBenchmarksWith(benches, experiments.Options{Obs: c.reg})
	end()
	if err != nil {
		return err
	}
	c.suite = suite
	for _, p := range suite.Items {
		c.check(p.OptRun.Completed, "%s: optimized evaluation run hit the instruction cap", p.Name())
		c.check(p.NatRun.Completed, "%s: natural evaluation run hit the instruction cap", p.Name())
	}
	return nil
}

// phaseStats samples the Go runtime counters the go.* layer metrics
// are derived from.
type phaseStats struct{ allocBytes, gcCPU, totalCPU float64 }

func samplePhase() phaseStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(m metrics.Sample) float64 {
		switch m.Value.Kind() {
		case metrics.KindUint64:
			return float64(m.Value.Uint64())
		case metrics.KindFloat64:
			return m.Value.Float64()
		}
		return 0
	}
	return phaseStats{val(s[0]), val(s[1]), val(s[2])}
}

func (c *runCtx) phaseLayers(phase string, from, to phaseStats) {
	c.layers["go."+phase+".alloc_mb"] = (to.allocBytes - from.allocBytes) / (1 << 20)
	frac := 0.0
	if d := to.totalCPU - from.totalCPU; d > 0 {
		frac = (to.gcCPU - from.gcCPU) / d
	}
	c.layers["go."+phase+".gc_cpu_fraction"] = frac
}

// childMain runs one workload cold and prints its report as JSON.
func childMain(args []string) int {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 0, "workload seed")
	traced := fs.Bool("trace", false, "record spans, engine counters and a CPU profile")
	tmpDir := fs.String("tmp", "", "scratch directory for trace files")
	spansDir := fs.String("spans", "", "directory the traced run writes its spans to")
	cleared := fs.String("cleared", "", "comma-separated IMPACT_* variables the harness removed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench child: unknown workload %q\n", *name)
		return 2
	}
	nproc := runtime.NumCPU()
	runID := fmt.Sprintf("%s-%d-%d-%d", *name, *seed, os.Getpid(), time.Now().UnixNano())
	c := &runCtx{
		workload: *name, seed: *seed, scale: w.scale, workers: nproc,
		traced: *traced, tmpDir: *tmpDir,
		rec:    newRecorder(*traced, runID),
		layers: map[string]float64{},
		rep:    childReport{Digests: map[string]string{}},
	}
	c.rep.Manifest = newManifest(c, *cleared)
	if err := c.runCold(w, filepath.Join(*spansDir, "spans-"+runID+".json")); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	return 0
}

// runCold runs the workload's phases, then, in a traced run, the
// layer-by-layer pipeline, and writes the report to stdout and the
// spans to spansPath.
func (c *runCtx) runCold(w spec, spansPath string) error {
	var prof bytes.Buffer
	if c.traced {
		c.reg = obs.NewRegistry()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
	}
	experiments.Configure(experiments.EngineConfig{Workers: c.workers})

	p0 := samplePhase()
	t0 := time.Now()
	if err := w.setup(c); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	p1 := samplePhase()
	t1 := time.Now()
	if err := w.run(c); err != nil {
		return fmt.Errorf("run: %w", err)
	}
	t2 := time.Now()
	p2 := samplePhase()
	c.rep.SetupS = t1.Sub(t0).Seconds()
	c.rep.RunS = t2.Sub(t1).Seconds()
	if err := w.checks(c); err != nil {
		return fmt.Errorf("checks: %w", err)
	}
	if c.traced {
		if err := runFrontEnd(c); err != nil {
			return fmt.Errorf("front end: %w", err)
		}
		pprof.StopCPUProfile()
		c.phaseLayers("setup", p0, p1)
		c.phaseLayers("run", p1, p2)
		if err := c.collectLayers(prof.Bytes()); err != nil {
			return err
		}
		c.rep.Layers = c.layers
		if err := c.rec.write(spansPath, map[string]any{"workload": c.workload, "seed": c.seed}); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(c.rep)
}

func newManifest(c *runCtx, cleared string) manifest {
	m := manifest{
		Argv:       os.Args,
		Workload:   c.workload,
		Seed:       c.seed,
		Scale:      c.scale,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Workers: map[string]int{
			"experiments.Configure": c.workers,
			"search.Config.Workers": c.workers,
		},
		GoVersion:        runtime.Version(),
		Revision:         "unknown",
		ImpactEnvCleared: []string{},
		ImpactEnvLeft:    []string{},
		Traced:           c.traced,
	}
	if cleared != "" {
		m.ImpactEnvCleared = strings.Split(cleared, ",")
	}
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "IMPACT_") {
			m.ImpactEnvLeft = append(m.ImpactEnvLeft, kv[:strings.IndexByte(kv, '=')])
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Revision = s.Value
			case "vcs.modified":
				m.Modified = s.Value
			}
		}
	}
	return m
}
