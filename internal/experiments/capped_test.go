package experiments

import (
	"testing"

	"impact/internal/check"
	"impact/internal/ir"
	"impact/internal/workload"
)

// spinner returns a benchmark whose every run reaches the instruction
// cap: main loops over one 8-instruction block with exit probability
// 1e-12. Its cap is 4*TargetInstrs + 2^20 = 1048580 instructions.
func spinner() *workload.Benchmark {
	pb := ir.NewProgramBuilder()
	fb := pb.NewFunc("main")
	body := fb.NewBlock()
	exit := fb.NewBlock()
	fb.Fill(body, 8)
	fb.Branch(body, ir.Arc{To: body, Prob: 1 - 1e-12}, ir.Arc{To: exit, Prob: 1e-12})
	fb.Ret(exit)
	return &workload.Benchmark{
		Params:       workload.Params{Name: "spin", TargetInstrs: 1},
		Prog:         pb.Build(),
		ProfileSeeds: []uint64{1, 2},
		EvalSeed:     3,
	}
}

// TestCappedEvaluationStrict pins what a capped evaluation run does in
// each verification mode. Under strict, preparing the suite and a
// derived variant's evaluation trace fail with an error naming the
// benchmark, the layout or variant, the cap and the executed count;
// warn and off accept the run. The derived rows prepare under warn and
// then run the table in the row's mode, so a strict row reaches the
// variant's own check. (A back-end-only variant such as a MIN_PROB
// threshold executes the prepared program's instructions and so caps
// only when preparing did; core.BackEnd also refuses a mode stricter
// than its front end's, so only its warn row is reachable here.)
func TestCappedEvaluationStrict(t *testing.T) {
	prepare := func(mode check.Mode) (*Suite, error) {
		return PrepareBenchmarksWith([]*workload.Benchmark{spinner()}, Options{Check: mode})
	}
	derived := func(table func(*Suite) error) func(check.Mode) error {
		return func(mode check.Mode) error {
			s, err := prepare(check.Warn)
			if err != nil {
				return err
			}
			s.Items[0].cfg.Check = mode
			return table(s)
		}
	}
	table9 := derived(func(s *Suite) error { _, err := Table9(s); return err })
	minProb := derived(func(s *Suite) error { _, err := AblationMinProb(s); return err })
	layouts := derived(func(s *Suite) error { _, err := AblationLayout(s); return err })
	for _, tc := range []struct {
		name string
		mode check.Mode
		run  func(check.Mode) error
		want string
	}{
		{"prepare/strict", check.Strict, func(m check.Mode) error { _, err := prepare(m); return err },
			"experiments: spin: layout optimized: evaluation run hit the instruction cap 1048580 after 1048581 instructions"},
		{"prepare/warn", check.Warn, func(m check.Mode) error { _, err := prepare(m); return err }, ""},
		{"prepare/off", check.Off, func(m check.Mode) error { _, err := prepare(m); return err }, ""},
		{"table9/strict", check.Strict, table9,
			"spin at scale 0.5: experiments: spin: variant scale:0.5: evaluation run hit the instruction cap 1048580 after 1048580 instructions"},
		{"table9/warn", check.Warn, table9, ""},
		{"table9/off", check.Off, table9, ""},
		{"minprob/warn", check.Warn, minProb, ""},
		{"layout/strict", check.Strict, layouts,
			"experiments: spin: variant layout:random: evaluation run hit the instruction cap 1048580 after 1048581 instructions"},
		{"layout/warn", check.Warn, layouts, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run(tc.mode)
			got := ""
			if err != nil {
				got = err.Error()
			}
			if got != tc.want {
				t.Errorf("error %q\nwant  %q", got, tc.want)
			}
		})
	}
}
