package core

import (
	"reflect"
	"sync"
	"testing"

	"impact/internal/check"
	"impact/internal/core/inline"
	"impact/internal/ir"
	"impact/internal/memtrace"
	"impact/internal/obs"
	"impact/internal/workload"
)

func TestBackEndRejectsMismatchedFrontEnd(t *testing.T) {
	p := testProgram(t)
	base := DefaultConfig(seeds(4)...)
	inlined, err := FrontEnd(p, base)
	if err != nil {
		t.Fatal(err)
	}
	plainCfg := base
	plainCfg.Strategy.Inline = false
	plain, err := FrontEnd(p, plainCfg)
	if err != nil {
		t.Fatal(err)
	}
	strictCfg := base
	strictCfg.Check = check.Strict
	strict, err := FrontEnd(p, strictCfg)
	if err != nil {
		t.Fatal(err)
	}

	tests := []struct {
		name    string
		front   *Profiled
		edit    func(*Config)
		wantErr string // empty: the back end must run
	}{
		{
			name:    "nil front end",
			front:   nil,
			wantErr: "core: back end given no front end",
		},
		{
			name:  "matching config",
			front: inlined,
		},
		{
			name:  "no-inline arm on an inlined front end",
			front: inlined,
			edit:  func(c *Config) { c.Strategy.Inline = false },
		},
		{
			name:  "zero inline config means the default",
			front: inlined,
			edit:  func(c *Config) { c.Inline = inline.Config{} },
		},
		{
			name:  "looser check mode",
			front: strict,
			edit:  func(c *Config) { c.Check = check.Warn },
		},
		{
			name:    "no seeds",
			front:   inlined,
			edit:    func(c *Config) { c.ProfileSeeds = nil },
			wantErr: "core: no profiling seeds configured",
		},
		{
			name:    "seed mismatch",
			front:   inlined,
			edit:    func(c *Config) { c.ProfileSeeds = seeds(2) },
			wantErr: "core: config profile seeds [1 2] differ from the front end's [1 2 3 4]",
		},
		{
			name:    "interp mismatch",
			front:   inlined,
			edit:    func(c *Config) { c.Interp.ProbJitter = 0.1 },
			wantErr: "core: config interp {MaxSteps:0 MaxDepth:0 ProbJitter:0.1} differs from the front end's {MaxSteps:0 MaxDepth:0 ProbJitter:0}",
		},
		{
			name:    "inline config mismatch",
			front:   inlined,
			edit:    func(c *Config) { c.Inline.MaxGrowth = 2 },
			wantErr: "core: config inline {MaxGrowth:2 MinSiteFraction:0.01 MaxCalleeBytes:4096} differs from the front end's {MaxGrowth:1.35 MinSiteFraction:0.01 MaxCalleeBytes:4096}",
		},
		{
			name:    "inlining requested on a non-inlined front end",
			front:   plain,
			wantErr: "core: config enables inlining but the front end did not inline",
		},
		{
			name:    "stricter check mode",
			front:   inlined,
			edit:    func(c *Config) { c.Check = check.Strict },
			wantErr: "core: config check mode strict is stricter than the front end's off",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base
			if tt.edit != nil {
				tt.edit(&cfg)
			}
			res, err := BackEnd(tt.front, cfg)
			if tt.wantErr == "" {
				if err != nil || res == nil {
					t.Fatalf("BackEnd = %v, %v; want a result", res, err)
				}
				return
			}
			if err == nil || err.Error() != tt.wantErr {
				t.Fatalf("BackEnd error = %v\nwant %q", err, tt.wantErr)
			}
			if res != nil {
				t.Fatalf("BackEnd returned a result alongside error %v", err)
			}
		})
	}
}

// backEndArm is one back-end variant the experiment tables derive from
// a benchmark's shared front end.
type backEndArm struct {
	name string
	edit func(*Config)
}

// backEndArms mirrors the derived runs of internal/experiments: the A3
// MIN_PROB sweep, the A1 trace-only/no-inline/no-split strategies, A4's
// no-DFS order and A6's Pettis-Hansen order, plus the full pipeline.
func backEndArms() []backEndArm {
	minProb := func(mp float64) func(*Config) { return func(c *Config) { c.MinProb = mp } }
	strategy := func(s Strategy) func(*Config) { return func(c *Config) { c.Strategy = s } }
	return []backEndArm{
		{"full", func(*Config) {}},
		{"minprob 0.5", minProb(0.5)},
		{"minprob 0.6", minProb(0.6)},
		{"minprob 0.8", minProb(0.8)},
		{"minprob 0.9", minProb(0.9)},
		{"trace-only", strategy(Strategy{TraceLayout: true})},
		{"no-inline", strategy(Strategy{TraceLayout: true, GlobalDFS: true, SplitCold: true})},
		{"no-split", strategy(Strategy{Inline: true, TraceLayout: true, GlobalDFS: true})},
		{"no-dfs", strategy(Strategy{Inline: true, TraceLayout: true, SplitCold: true})},
		{"pettis-hansen", strategy(Strategy{Inline: true, TraceLayout: true, GlobalDFS: true, SplitCold: true, PettisHansen: true})},
	}
}

// diffResults names every Result field on which got and want differ.
func diffResults(got, want *Result) []string {
	var diff []string
	g, w := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	for i := 0; i < g.NumField(); i++ {
		if !reflect.DeepEqual(g.Field(i).Interface(), w.Field(i).Interface()) {
			diff = append(diff, g.Type().Field(i).Name)
		}
	}
	return diff
}

// TestBackEndMatchesOptimize is the front-end/back-end differential:
// for every suite benchmark and every derived arm, the back end on one
// shared front end must equal a from-scratch Optimize field for field
// (program, both profiles, traces, orders, global order, layout
// addresses, trace stats, verifier report) and yield the same
// evaluation trace. All arms then run again concurrently on the same
// artifact, which must come out identical to a freshly built one.
func TestBackEndMatchesOptimize(t *testing.T) {
	suite := workload.Suite(0.05)
	fresh := workload.Suite(0.05)
	arms := backEndArms()
	for i, b := range suite {
		fresh := fresh[i]
		t.Run(b.Name(), func(t *testing.T) {
			t.Parallel()
			base := DefaultConfig(b.ProfileSeeds...)
			base.Interp = b.InterpConfig()
			base.Check = check.Warn
			pf, err := FrontEnd(b.Prog, base)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]*Result, len(arms))
			wantTr := make([]*memtrace.Trace, len(arms))
			for j, arm := range arms {
				cfg := base
				arm.edit(&cfg)
				if want[j], err = Optimize(b.Prog, cfg); err != nil {
					t.Fatalf("%s: Optimize: %v", arm.name, err)
				}
				if wantTr[j], _, err = want[j].EvalTrace(b.EvalSeed, b.EvalConfig()); err != nil {
					t.Fatal(err)
				}
				got, err := BackEnd(pf, cfg)
				if err != nil {
					t.Fatalf("%s: BackEnd: %v", arm.name, err)
				}
				if d := diffResults(got, want[j]); len(d) > 0 {
					t.Errorf("%s: back end differs from Optimize in %v", arm.name, d)
				}
			}

			var wg sync.WaitGroup
			got := make([]*Result, len(arms))
			gotTr := make([]*memtrace.Trace, len(arms))
			errs := make([]error, len(arms))
			for j, arm := range arms {
				wg.Add(1)
				go func(j int, arm backEndArm) {
					defer wg.Done()
					cfg := base
					arm.edit(&cfg)
					if got[j], errs[j] = BackEnd(pf, cfg); errs[j] == nil {
						gotTr[j], _, errs[j] = got[j].EvalTrace(b.EvalSeed, b.EvalConfig())
					}
				}(j, arm)
			}
			wg.Wait()
			for j, arm := range arms {
				if errs[j] != nil {
					t.Fatalf("%s (concurrent): %v", arm.name, errs[j])
				}
				if d := diffResults(got[j], want[j]); len(d) > 0 {
					t.Errorf("%s (concurrent): back end differs from Optimize in %v", arm.name, d)
				}
				if !reflect.DeepEqual(gotTr[j], wantTr[j]) {
					t.Errorf("%s (concurrent): evaluation trace differs from Optimize's", arm.name)
				}
			}

			// The artifact is immutable: after every arm ran on it, it
			// still equals one built from an independently generated
			// copy of the benchmark.
			pristine, err := FrontEnd(fresh.Prog, base)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(pf, pristine) {
				t.Error("front-end artifact changed while back ends ran on it")
			}
		})
	}
}

// TestBackEndNeverProfiles pins the point of the split: a back-end run
// executes no interpreter run, while its front end does one per
// profiling seed and pass. A front end derived from it for a program
// with the same control skeleton runs none either.
func TestBackEndNeverProfiles(t *testing.T) {
	p := testProgram(t)
	cfg := DefaultConfig(seeds(4)...)
	cfg.Obs = obs.NewRegistry()
	pf, err := FrontEnd(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if runs, derived, fallback := profileCounts(cfg.Obs); runs != 8 || derived != 0 || fallback != 0 {
		t.Fatalf("front end interp.runs = %d, %d derived, %d fallback; want 8 (4 seeds, profile and re-profile), 0, 0",
			runs, derived, fallback)
	}

	cfg.Obs = obs.NewRegistry()
	if _, err := FrontEndFrom(pf, ir.ScaleCode(p, 0.7), cfg); err != nil {
		t.Fatal(err)
	}
	if runs, derived, fallback := profileCounts(cfg.Obs); runs != 0 || derived != 2 || fallback != 0 {
		t.Errorf("derived front end interp.runs = %d, %d derived, %d fallback; want 0, 2, 0", runs, derived, fallback)
	}
	if cfg.Obs.Snapshot().Spans["pipeline/profile"].Count != 1 {
		t.Error("derived input pass not recorded under pipeline/profile")
	}

	cfg.Obs = obs.NewRegistry()
	cfg.MinProb = 0.9
	if _, err := BackEnd(pf, cfg); err != nil {
		t.Fatal(err)
	}
	snap := cfg.Obs.Snapshot()
	if got := snap.Counters["interp.runs"]; got != 0 {
		t.Errorf("back end interp.runs = %d, want 0", got)
	}
	if got := snap.Counters["pipeline.runs"]; got != 1 {
		t.Errorf("back end pipeline.runs = %d, want 1", got)
	}
	for _, stage := range []string{"traceselect", "funclayout", "globallayout", "compose"} {
		if snap.Spans["pipeline/"+stage].Count != 1 {
			t.Errorf("span pipeline/%s not recorded once", stage)
		}
	}
	if _, ok := snap.Spans["pipeline/profile"]; ok {
		t.Error("back end recorded a pipeline/profile span")
	}
}
