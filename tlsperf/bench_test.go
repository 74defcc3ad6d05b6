package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs/trace"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestWrapperForwardsOptionalMethods checks that the wrapper has exactly the
// optional methods of the workload it wraps: an oracle the workload lacks
// would make the simulator verify reads against nothing, and a missing one
// would switch verification off.
func TestWrapperForwardsOptionalMethods(t *testing.T) {
	gen := workload.NewGenerator(workload.StandardScale(workload.Tree()), 1)
	plain := workload.NewTrace("t", [][]workload.Op{{{Kind: workload.OpCompute, Instr: 1}}}, 0)
	for _, tc := range []struct {
		name               string
		w                  sim.Workload
		oracle, concurrent bool
	}{
		{"generator", gen, true, true},
		{"replay", record(gen), true, true},
		{"trace", plain, false, true},
		{"bare", struct{ sim.Workload }{gen}, false, false},
	} {
		w, _ := wrapWorkload(tc.w, nil)
		_, oracle := w.(sim.OrderOracle)
		c, concurrent := w.(sim.ConcurrentWorkload)
		if oracle != tc.oracle || concurrent != tc.concurrent {
			t.Errorf("%s: wrapper oracle=%v concurrent=%v, want %v %v", tc.name, oracle, concurrent, tc.oracle, tc.concurrent)
		}
		if concurrent && !c.ConcurrentTaskSafe() {
			t.Errorf("%s: ConcurrentTaskSafe not forwarded", tc.name)
		}
	}
}

// TestWrappedRunsEqualUnwrapped runs every workload's simulations with and
// without the timing wrapper: results, oracle checks and prefetch hits and
// misses must be identical. paper-grid is represented by Figure 9's
// sequential baselines and MultiT&MV Lazy cells.
func TestWrappedRunsEqualUnwrapped(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size simulations")
	}
	for _, w := range workloads[1:] {
		s := w.setup(1).(*single)
		t.Run(w.name, func(t *testing.T) {
			plain := s.build(s.input)
			want, err := runSim(plain)
			if err != nil {
				t.Fatal(err)
			}
			wrapped, timer := wrapWorkload(s.input, trace.New("test"))
			traced := s.build(wrapped)
			got, err := runSim(traced)
			if err != nil {
				t.Fatal(err)
			}
			compare(t, want, got)
			if want.OracleChecks == 0 && s.spec.profile().DepProb > 0 {
				t.Errorf("no oracle checks on a workload with cross-task reads")
			}
			ps, pw := plain.ParallelStats(), traced.ParallelStats()
			if ps.PrefetchHits != pw.PrefetchHits || ps.PrefetchMisses != pw.PrefetchMisses {
				t.Errorf("prefetch hits/misses %d/%d wrapped, %d/%d plain",
					pw.PrefetchHits, pw.PrefetchMisses, ps.PrefetchHits, ps.PrefetchMisses)
			}
			if s.spec.parallel > 1 && pw.PrefetchHits == 0 {
				t.Errorf("the prefetcher did not run on the wrapped workload")
			}
			if timer.calls.Load() < int64(want.Tasks) || timer.busyNs.Load() <= 0 {
				t.Errorf("wrapper counted %d calls, %d ns", timer.calls.Load(), timer.busyNs.Load())
			}
		})
	}
	t.Run("paper-grid", func(t *testing.T) {
		// Figure 9's sequential baselines and MultiT&MV Lazy cells: every
		// application, both construction paths of buildJob.
		for _, j := range gridBatches()[1] {
			if !j.Sequential && j.Scheme != core.MultiTMVLazy {
				continue
			}
			want := j.Execute()
			wrapped, _ := wrapWorkload(workload.NewGenerator(j.Profile, j.Seed), nil)
			sm, err := buildJob(j, wrapped)
			if err != nil {
				t.Fatal(err)
			}
			got, err := runSim(sm)
			if err != nil {
				t.Fatal(err)
			}
			compare(t, want, got)
		}
	})
}

func compare(t *testing.T, want, got sim.Result) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Errorf("%s/%s: wrapped result differs: %d vs %d cycles", want.Machine, want.App, got.ExecCycles, want.ExecCycles)
	}
	if want.OracleChecks != got.OracleChecks {
		t.Errorf("%s/%s: %d oracle checks wrapped, %d plain", want.Machine, want.App, got.OracleChecks, want.OracleChecks)
	}
}

// TestCorruptedDigestFailsRun checks the gate end to end: the shipped
// digests pass, and one corrupted digest makes the run report a failure and
// exit non-zero.
func TestCorruptedDigestFailsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size simulations")
	}
	args := []string{"--workload", "p3m-parallel", "--seed", "1", "--seconds", "0.1"}
	res, code := runWith(t, expectedJSON, args)
	if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 2 {
		t.Fatalf("clean run: exit %d, %+v", code, res)
	}

	var exp map[string]map[string]string
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		t.Fatal(err)
	}
	if exp["p3m-parallel"]["1"] == "" {
		t.Fatal("no shipped digest for p3m-parallel seed 1")
	}
	exp["p3m-parallel"]["1"] = strings.Repeat("0", 16)
	corrupt, err := json.Marshal(exp)
	if err != nil {
		t.Fatal(err)
	}
	res, code = runWith(t, corrupt, args)
	if code == 0 || res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted digest: exit %d, %+v", code, res)
	}
}

// runWith runs the benchmark with the given shipped digests and decodes its
// last line.
func runWith(t *testing.T, expected []byte, args []string) (outcome, int) {
	t.Helper()
	saved := expectedJSON
	expectedJSON = expected
	defer func() { expectedJSON = saved }()
	var out bytes.Buffer
	code := run(args, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res outcome
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return res, code
}
