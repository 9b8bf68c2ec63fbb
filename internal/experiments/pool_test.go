package experiments

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"impact/internal/obs"
)

// poolScale is the dynamic scale of the suites the pool tests prepare
// afresh (the shared testSuite would carry memos between runs).
const poolScale = 0.05

// withWorkers sets the process-wide worker count (Configure) until the
// test ends.
func withWorkers(t *testing.T, n int) {
	t.Helper()
	defaults.mu.Lock()
	old := defaults.cfg
	defaults.cfg.Workers = n
	defaults.mu.Unlock()
	t.Cleanup(func() {
		defaults.mu.Lock()
		defaults.cfg = old
		defaults.mu.Unlock()
	})
}

// prepareAt prepares a fresh suite at poolScale on a pool of the given
// width, reporting to reg (which may be nil).
func prepareAt(t *testing.T, workers int, reg *obs.Registry) *Suite {
	t.Helper()
	withWorkers(t, workers)
	s, err := PrepareWith(poolScale, Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestBuildersWorkerCountDeterminism runs every table builder that
// submits work to the suite's pool at Workers 1 and 4, each on its own
// freshly prepared suite so the two share no memo, and requires
// deep-equal rows.
func TestBuildersWorkerCountDeterminism(t *testing.T) {
	builders := []struct {
		name string
		run  func(*Suite) (any, error)
	}{
		{"table9", func(s *Suite) (any, error) { return Table9(s) }},
		{"ablation-layout", func(s *Suite) (any, error) { return AblationLayout(s) }},
		{"ablation-minprob", func(s *Suite) (any, error) { return AblationMinProb(s) }},
		{"ablation-global", func(s *Suite) (any, error) {
			with, without, err := AblationGlobal(s)
			return [2]float64{with, without}, err
		}},
		{"ablation-globalalgo", func(s *Suite) (any, error) { return AblationGlobalAlgo(s) }},
		{"ext-timing", func(s *Suite) (any, error) { return ExtTiming(s) }},
		{"ext-paging", func(s *Suite) (any, error) { return ExtPaging(s, ExtPagingConfig()) }},
		{"ext-prefetch", func(s *Suite) (any, error) { return ExtPrefetch(s) }},
		{"ext-hierarchy", func(s *Suite) (any, error) { return ExtHierarchy(s) }},
		{"ext-extended", func(*Suite) (any, error) { return ExtExtendedSuite(poolScale) }},
	}
	rows := make(map[int][]any)
	for _, workers := range []int{1, 4} {
		s := prepareAt(t, workers, nil)
		if got := s.engine().workers(); got != workers {
			t.Fatalf("suite engine has %d workers, want %d", got, workers)
		}
		for _, b := range builders {
			got, err := b.run(s)
			if err != nil {
				t.Fatalf("%s at %d workers: %v", b.name, workers, err)
			}
			rows[workers] = append(rows[workers], got)
		}
	}
	for i, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			if !reflect.DeepEqual(rows[1][i], rows[4][i]) {
				t.Errorf("rows differ between 1 and 4 workers:\n 1: %+v\n 4: %+v", rows[1][i], rows[4][i])
			}
		})
	}
}

// TestDerivedRunsRecorded pins what a suite's registry counts: the
// prepare alone, then every derived pipeline run of Table 9 and the
// ablations, each attributed like the prepare's own. At Workers 1 the
// whole run uses one prepare lane and one pool lane.
func TestDerivedRunsRecorded(t *testing.T) {
	reg := obs.NewRegistry()
	reg.AttachTracer(obs.NewTracer(obs.DefaultTraceCapacity))
	s := prepareAt(t, 1, reg)
	counts := func() [4]uint64 {
		return [4]uint64{
			reg.Counter("pipeline.runs").Value(),
			reg.Counter("interp.runs").Value(),
			reg.Counter("pipeline.profile.derived").Value(),
			reg.Counter("pipeline.profile.fallback").Value(),
		}
	}
	steps := []struct {
		name string
		run  func() error
		// want is pipeline.runs, interp.runs,
		// pipeline.profile.derived and pipeline.profile.fallback
		// after the step.
		want [4]uint64
	}{
		{"prepare", func() error { return nil }, [4]uint64{10, 240, 0, 0}},
		{"table9", func() error { _, err := Table9(s); return err }, [4]uint64{40, 390, 54, 6}},
		{"ablation-layout", func() error { _, err := AblationLayout(s); return err }, [4]uint64{70, 430, 54, 6}},
		{"ablation-minprob", func() error { _, err := AblationMinProb(s); return err }, [4]uint64{110, 470, 54, 6}},
		{"ablation-global", func() error { _, _, err := AblationGlobal(s); return err }, [4]uint64{120, 480, 54, 6}},
		{"ablation-globalalgo", func() error { _, err := AblationGlobalAlgo(s); return err }, [4]uint64{130, 490, 54, 6}},
		{"memoized rerun", func() error { _, err := Table9(s); return err }, [4]uint64{130, 490, 54, 6}},
	}
	for _, st := range steps {
		if err := st.run(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if got := counts(); got != st.want {
			t.Errorf("after %s: runs/interp/derived/fallback = %v, want %v", st.name, got, st.want)
		}
		if st.name == "table9" {
			want := []string{"main", "prepare-worker-0", "sweep-worker-0"}
			if lanes := reg.Tracer().LaneNames(); !reflect.DeepEqual(lanes, want) {
				t.Errorf("Workers:1 lanes after prepare and Table 9 = %v, want %v", lanes, want)
			}
		}
	}
}

// TestEachFirstErrorInItemOrder pins the pool's error contract: the
// error returned is the lowest-indexed failing item's, even when a
// later item fails first, and every item before it runs.
func TestEachFirstErrorInItemOrder(t *testing.T) {
	e := NewEngine()
	e.Configure(EngineConfig{Workers: 4})
	for rep := 0; rep < 20; rep++ {
		var ran [8]atomic.Bool
		release := make(chan struct{})
		err := e.each(len(ran), func(_ worker, i int) error {
			ran[i].Store(true)
			switch i {
			case 1:
				<-release // fail only after item 3 has failed
				return errors.New("item 1")
			case 3:
				close(release)
				return errors.New("item 3")
			}
			return nil
		})
		if err == nil || err.Error() != "item 1" {
			t.Fatalf("rep %d: error %v, want item 1", rep, err)
		}
		for i := 0; i <= 1; i++ {
			if !ran[i].Load() {
				t.Fatalf("rep %d: item %d never ran", rep, i)
			}
		}
	}
}
