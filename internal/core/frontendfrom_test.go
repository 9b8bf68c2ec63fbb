package core

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"impact/internal/check"
	"impact/internal/ir"
	"impact/internal/obs"
	"impact/internal/profile"
	"impact/internal/workload"
)

// diffFronts names every Profiled field on which got and want differ:
// the profiles, the inlining outcome and the verifier reports (Input is
// the caller's program on both sides).
func diffFronts(got, want *Profiled) []string {
	var diff []string
	for _, f := range []struct {
		name string
		g, w any
	}{
		{"InputWeights", got.InputWeights, want.InputWeights},
		{"Inlined", got.Inlined, want.Inlined},
		{"InlinedWeights", got.InlinedWeights, want.InlinedWeights},
		{"InlineReport", got.InlineReport, want.InlineReport},
		{"inputChecks", got.inputChecks, want.inputChecks},
		{"inlineChecks", got.inlineChecks, want.inlineChecks},
	} {
		if !reflect.DeepEqual(f.g, f.w) {
			diff = append(diff, f.name)
		}
	}
	return diff
}

// profileCounts returns the interpreter runs and the derived and
// fallback profile passes a registry recorded.
func profileCounts(reg *obs.Registry) (runs, derived, fallback uint64) {
	c := reg.Snapshot().Counters
	return c["interp.runs"], c["pipeline.profile.derived"], c["pipeline.profile.fallback"]
}

// TestFrontEndFromMatchesFrontEnd is the Table 9 differential: for
// every suite benchmark and code-scaling factor, the front end derived
// from the benchmark's own artifact must equal a fresh front end on the
// scaled program (both profiles, inlined program, inline report,
// verifier reports), and so must the back end's Result and the
// evaluation trace. Most variants must derive both profiles, so a
// derivation that always falls back fails; the variants where the step
// cap forbids it must fall back.
func TestFrontEndFromMatchesFrontEnd(t *testing.T) {
	factors := []float64{0.5, 0.7, 1.1}
	for _, scale := range []float64{0.05, 0.1} {
		t.Run(fmt.Sprintf("scale %g", scale), func(t *testing.T) {
			var mu sync.Mutex
			derivedBoth := 0
			fellBack := map[string]bool{} // "bench xfactor" with a fallback pass
			baseCapped := map[string]bool{}
			t.Run("suite", func(t *testing.T) {
				for _, b := range workload.Suite(scale) {
					t.Run(b.Name(), func(t *testing.T) {
						t.Parallel()
						cfg := DefaultConfig(b.ProfileSeeds...)
						cfg.Interp = b.InterpConfig()
						cfg.Check = check.Warn
						base, err := FrontEnd(b.Prog, cfg)
						if err != nil {
							t.Fatal(err)
						}
						mu.Lock()
						baseCapped[b.Name()] = base.InputWeights.Capped > 0
						mu.Unlock()
						for _, factor := range factors {
							q := ir.ScaleCode(b.Prog, factor)
							dcfg := cfg
							dcfg.Obs = obs.NewRegistry()
							got, err := FrontEndFrom(base, q, dcfg)
							if err != nil {
								t.Fatalf("x%g: FrontEndFrom: %v", factor, err)
							}
							want, err := FrontEnd(q, cfg)
							if err != nil {
								t.Fatal(err)
							}
							if d := diffFronts(got, want); len(d) > 0 {
								t.Errorf("x%g: derived front end differs from a fresh one in %v", factor, d)
							}
							gotRes, err := BackEnd(got, cfg)
							if err != nil {
								t.Fatal(err)
							}
							wantRes, err := BackEnd(want, cfg)
							if err != nil {
								t.Fatal(err)
							}
							if d := diffResults(gotRes, wantRes); len(d) > 0 {
								t.Errorf("x%g: back end on the derived front end differs in %v", factor, d)
							}
							gotTr, _, err := gotRes.EvalTrace(b.EvalSeed, b.EvalConfig())
							if err != nil {
								t.Fatal(err)
							}
							wantTr, _, err := wantRes.EvalTrace(b.EvalSeed, b.EvalConfig())
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(gotTr, wantTr) {
								t.Errorf("x%g: evaluation trace differs", factor)
							}

							runs, derived, fallback := profileCounts(dcfg.Obs)
							if derived+fallback != 2 {
								t.Errorf("x%g: %d derived + %d fallback profile passes, want 2", factor, derived, fallback)
							}
							if (runs == 0) != (fallback == 0) {
								t.Errorf("x%g: interp.runs = %d with %d fallback passes", factor, runs, fallback)
							}
							mu.Lock()
							if fallback == 0 {
								derivedBoth++
							} else {
								fellBack[fmt.Sprintf("%s x%g", b.Name(), factor)] = true
							}
							mu.Unlock()
						}
					})
				}
			})
			if t.Failed() {
				return
			}
			t.Logf("%d of 30 variants derived both profiles; fell back: %v", derivedBoth, fellBack)
			if derivedBoth < 25 {
				t.Errorf("%d of 30 variants derived both profiles, want at least 25 (fell back: %v)", derivedBoth, fellBack)
			}
			// The pinned fallbacks: at scale 0.05 cmp's own profile is
			// capped, so nothing derives from it; at 0.1 it completes,
			// but cmp x1.1 would reach the step cap (a fresh profile
			// of it is capped), so the cap bound must refuse.
			wantFallback := []string{"cmp x1.1"}
			if scale == 0.05 {
				if !baseCapped["cmp"] {
					t.Error("cmp's base profile is not capped at scale 0.05")
				}
				wantFallback = []string{"cmp x0.5", "cmp x0.7", "cmp x1.1"}
			}
			for _, v := range wantFallback {
				if !fellBack[v] {
					t.Errorf("%s derived its profiles, want a fallback", v)
				}
			}
		})
	}
}

// TestFrontEndFrom is the skeleton-mismatch and config-error table on
// hand-built program pairs. A pair whose skeletons differ, or whose
// step cap forbids the derivation, must fall back to the interpreter
// (profile.Derive says exactly why) and still equal a fresh front end;
// a nil or mismatched base is an exact error.
func TestFrontEndFrom(t *testing.T) {
	p := testProgram(t)
	cfg := DefaultConfig(seeds(4)...)
	w, runs, err := profile.Profile(p, profile.Config{Seeds: cfg.ProfileSeeds})
	if err != nil {
		t.Fatal(err)
	}
	var longest uint64
	for _, r := range runs {
		longest = max(longest, r.Instrs)
	}
	if w.Capped > 0 {
		t.Fatal("test program capped under the default step budget")
	}

	// Program edits; each returns an edited copy of the test program.
	phase := func(q *ir.Program) *ir.Block { return q.Funcs[3].Blocks[1] } // main: [fill, call w1, call w2, branch]
	edit := func(f func(q *ir.Program)) func() *ir.Program {
		return func() *ir.Program {
			q := ir.Clone(p)
			f(q)
			return q
		}
	}
	scaled := func(factor float64) func() *ir.Program {
		return func() *ir.Program { return ir.ScaleCode(p, factor) }
	}
	same := func() *ir.Program { return p }

	tests := []struct {
		name    string
		base    func() *ir.Program // the base artifact's program (p when nil)
		q       func() *ir.Program
		edit    func(*Config)
		wantWhy string // profile.Derive's refusal; empty: it derives
		wantErr string // FrontEndFrom's error
		nilBase bool
	}{
		{
			name: "code-scaled copy derives",
			q:    scaled(0.5),
		},
		{
			name:    "arc probability one ulp apart",
			q:       edit(func(q *ir.Program) { phase(q).Out[0].Prob = math.Nextafter(phase(q).Out[0].Prob, 1) }),
			wantWhy: "profile: func \"main\" block 1: arcs [{1 0.8500000000000001} {2 0.15}] differ from [{1 0.85} {2 0.15}]",
		},
		{
			name:    "arc target changed",
			q:       edit(func(q *ir.Program) { q.Funcs[0].Blocks[1].Out[2].To = 3 }),
			wantWhy: "profile: func \"w1\" block 1: arcs [{1 0.9} {3 0.09949999999999998} {3 0.0005}] differ from [{1 0.9} {3 0.09949999999999998} {2 0.0005}]",
		},
		{
			name: "callees swapped",
			q: edit(func(q *ir.Program) {
				in := phase(q).Instrs
				in[1].Callee, in[2].Callee = in[2].Callee, in[1].Callee
			}),
			wantWhy: "profile: func \"main\" block 1: callees [1 0] differ from [0 1]",
		},
		{
			name: "call added",
			q: edit(func(q *ir.Program) {
				phase(q).Instrs = slices.Insert(phase(q).Instrs, 0, ir.Instr{Op: ir.OpCall, Callee: 2})
			}),
			wantWhy: "profile: func \"main\" block 1: callees [2 0 1] differ from [0 1]",
		},
		{
			name:    "call removed",
			q:       edit(func(q *ir.Program) { phase(q).Instrs = slices.Delete(phase(q).Instrs, 2, 3) }),
			wantWhy: "profile: func \"main\" block 1: callees [0] differ from [0 1]",
		},
		{
			name: "call moved to another block",
			q: edit(func(q *ir.Program) {
				call := phase(q).Instrs[2]
				phase(q).Instrs = slices.Delete(phase(q).Instrs, 2, 3)
				entry := q.Funcs[3].Blocks[0]
				entry.Instrs = append(entry.Instrs, call)
			}),
			wantWhy: "profile: func \"main\" block 0: callees [1] differ from []",
		},
		{
			name:    "different entry function",
			q:       edit(func(q *ir.Program) { q.Entry = 0 }),
			wantWhy: "profile: entry function 0 differs from 3",
		},
		{
			name: "different block count",
			q: edit(func(q *ir.Program) {
				dead := q.Funcs[2]
				dead.Blocks = append(dead.Blocks, &ir.Block{ID: 1, Instrs: []ir.Instr{{Op: ir.OpRet, Callee: ir.NoFunc}}})
			}),
			wantWhy: "profile: func \"dead\": entry block 0 of 2 differs from 0 of 1",
		},
		{
			name:    "empty source block gained instructions",
			base:    edit(func(q *ir.Program) { q.Funcs[3].Blocks[0].Instrs = nil }),
			q:       same,
			wantWhy: "profile: func \"main\" block 0: executed empty block has 2 instructions in the derived program",
		},
		{
			name:    "capped source profile",
			q:       scaled(0.5),
			edit:    func(c *Config) { c.Interp.MaxSteps = longest / 2 },
			wantWhy: "profile: source profile has 2 capped runs",
		},
		{
			name:    "scaled program could reach the step cap",
			q:       scaled(2),
			edit:    func(c *Config) { c.Interp.MaxSteps = longest + 1 },
			wantWhy: fmt.Sprintf("profile: run 0 may reach the step cap %d on the derived program (%d source instructions, block growth 6/3)", longest+1, runs[0].Instrs),
		},
		{
			name:    "nil base",
			q:       same,
			nilBase: true,
			wantErr: "core: front end given no base artifact",
		},
		{
			name:    "seed mismatch",
			q:       same,
			edit:    func(c *Config) { c.ProfileSeeds = seeds(2) },
			wantErr: "core: config profile seeds [1 2] differ from the front end's [1 2 3 4]",
		},
		{
			name:    "interp mismatch",
			q:       same,
			edit:    func(c *Config) { c.Interp.ProbJitter = 0.1 },
			wantErr: "core: config interp {MaxSteps:0 MaxDepth:0 ProbJitter:0.1} differs from the front end's {MaxSteps:0 MaxDepth:0 ProbJitter:0}",
		},
		{
			name:    "inline config mismatch",
			q:       same,
			edit:    func(c *Config) { c.Inline.MaxGrowth = 2 },
			wantErr: "core: config inline {MaxGrowth:2 MinSiteFraction:0.01 MaxCalleeBytes:4096} differs from the front end's {MaxGrowth:1.35 MinSiteFraction:0.01 MaxCalleeBytes:4096}",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			bp := p
			if tt.base != nil {
				bp = tt.base()
			}
			q := tt.q()
			cfg := DefaultConfig(seeds(4)...)
			if tt.wantErr == "" && tt.edit != nil {
				tt.edit(&cfg)
			}
			var base *Profiled
			if !tt.nilBase {
				var err error
				if base, err = FrontEnd(bp, cfg); err != nil {
					t.Fatal(err)
				}
			}
			if tt.wantErr != "" {
				if tt.edit != nil {
					tt.edit(&cfg)
				}
				got, err := FrontEndFrom(base, q, cfg)
				if err == nil || err.Error() != tt.wantErr {
					t.Fatalf("FrontEndFrom error = %v\nwant %q", err, tt.wantErr)
				}
				if got != nil {
					t.Fatalf("FrontEndFrom returned an artifact alongside error %v", err)
				}
				return
			}

			_, why := profile.Derive(base.Input, base.InputWeights, base.inputRuns, q, cfg.Interp)
			if tt.wantWhy == "" && why != nil {
				t.Fatalf("Derive refused: %v", why)
			}
			if tt.wantWhy != "" && (why == nil || why.Error() != tt.wantWhy) {
				t.Fatalf("Derive error = %v\nwant %q", why, tt.wantWhy)
			}

			dcfg := cfg
			dcfg.Obs = obs.NewRegistry()
			got, err := FrontEndFrom(base, q, dcfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := FrontEnd(q, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if d := diffFronts(got, want); len(d) > 0 {
				t.Errorf("FrontEndFrom differs from FrontEnd in %v", d)
			}
			runs, derived, fallback := profileCounts(dcfg.Obs)
			if tt.wantWhy == "" {
				if runs != 0 || derived != 2 || fallback != 0 {
					t.Errorf("interp.runs = %d, %d derived, %d fallback; want 0, 2, 0", runs, derived, fallback)
				}
			} else if runs == 0 || fallback == 0 {
				t.Errorf("interp.runs = %d, %d fallback passes; want a fallback", runs, fallback)
			}
		})
	}
}
