package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The workloads, and why each was chosen (README.md adds which end-to-end
// metric each layer should move):
//
//   - paper-grid: the 156 jobs tlsreport runs by default, on 2 workers with
//     no cache. It is what users run and covers every app, scheme and both
//     machines. The claims hold 21/21 at tlsreport's seed 1 but not at every
//     seed, so the grid always simulates seed 1 and the pass seed permutes
//     the order in which each batch's jobs reach the workers.
//   - bdna-full: full-size Bdna, NUMA16, MultiT&MV Lazy, serial core. The
//     highest generator share and the heaviest directory traffic; no
//     squashes, spills or undo log.
//   - euler-replay: full-size Euler, NUMA16, MultiT&MV FMM, fed a trace
//     recorded during set-up. Squashes and undo-log appends with no timed
//     generator work: generator changes should move only setup_s.
//   - p3m-parallel: full-size P3m, CMP8, MultiT&MV Eager AMM on the
//     parallel core (sharded queue + prefetcher); the overflow area spills.
//
// The single-run workloads simulate fresh generator seeds every pass
// (passSeed), so a run's medians average over inputs.

// workloadDef names a workload and builds its inputs.
type workloadDef struct {
	name  string
	setup func(seed uint64) instance
}

// instance is one workload's built inputs.
type instance interface {
	// pass runs the workload's simulations once; the caller times it.
	pass() passOut
	// verify runs the untimed checks on the run's last pass and returns
	// the extra simulations attempted and the failures found.
	verify(last passOut) (attempted int, failures []string)
	// traced makes the traced run.
	traced() tracedOut
}

// simRun is one simulation as the gate and the metrics see it.
type simRun struct {
	key  string // digest key in expected.json
	res  sim.Result
	wall time.Duration
	err  error
	// timed is false for simulations the singleflight guard deduplicated:
	// they executed nothing and have no latency.
	timed bool
}

// passOut is one pass: its simulations, the report it rendered (paper-grid
// only) and any claims that failed.
type passOut struct {
	runs     []simRun
	rendered []byte
	problems []string
}

var workloads = []workloadDef{
	{"paper-grid", newGrid},
	{"bdna-full", newSingle(singleSpec{
		machine: machine.NUMA16, scheme: core.MultiTMVLazy, profile: workload.Bdna,
	})},
	{"euler-replay", newSingle(singleSpec{
		machine: machine.NUMA16, scheme: core.MultiTMVFMM, profile: workload.Euler, replay: true,
	})},
	{"p3m-parallel", newSingle(singleSpec{
		machine: machine.CMP8, scheme: core.MultiTMVEager, profile: workload.P3m, parallel: 2,
	})},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// runSim runs s, turning a simulator panic (deadlock, livelock) into an
// error.
func runSim(s *sim.Simulator) (res sim.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("simulation panicked: %v\n%s", p, debug.Stack())
		}
	}()
	return s.Run(), nil
}

// ---- single-run workloads ----

type singleSpec struct {
	machine  func() *machine.Config
	scheme   core.Scheme
	profile  func() workload.Profile
	parallel int
	replay   bool
}

// single is one pass of a single-run workload.
type single struct {
	spec  singleSpec
	key   string
	gen   *workload.Generator
	input sim.Workload
	// sm is the pass's simulator, built in set-up; err is its run's error.
	sm  *sim.Simulator
	err error
}

// newSingle returns the set-up of a single-run workload: the generator (and
// for a replay the recorded trace) and the simulator.
func newSingle(spec singleSpec) func(seed uint64) instance {
	return func(seed uint64) instance {
		s := &single{spec: spec, key: fmt.Sprint(seed), gen: workload.NewGenerator(spec.profile(), seed)}
		s.input = s.gen
		if spec.replay {
			s.input = record(s.gen)
		}
		s.sm = sim.New(spec.machine(), spec.scheme, s.input)
		return s
	}
}

// build constructs one simulator of the workload over w.
func (s *single) build(w sim.Workload) *sim.Simulator {
	sm := sim.New(s.spec.machine(), s.spec.scheme, w)
	if s.spec.parallel > 1 {
		sm.SetParallel(s.spec.parallel)
	}
	return sm
}

func (s *single) pass() passOut {
	start := time.Now()
	if s.spec.parallel > 1 {
		s.sm.SetParallel(s.spec.parallel)
	}
	var res sim.Result
	res, s.err = runSim(s.sm)
	wall := time.Since(start)
	return passOut{runs: []simRun{{key: s.key, res: res, wall: wall, err: s.err, timed: true}}}
}

// verify checks the pass: its final memory image, and a rerun of its inputs
// on the serial core fed by the generator, which must be DeepEqual
// (parallel ≡ serial on p3m-parallel, trace-fed ≡ generator-fed on
// euler-replay, run-to-run determinism on bdna-full).
func (s *single) verify(last passOut) (attempted int, failures []string) {
	if s.err != nil {
		return 0, []string{"no completed simulation to verify"}
	}
	if checked, wrong := s.sm.VerifyFinalMemory(); checked == 0 || wrong != 0 {
		failures = append(failures, fmt.Sprintf("seed %s: final memory: %d of %d lines hold the wrong version", s.key, wrong, checked))
	}
	res, err := runSim(sim.New(s.spec.machine(), s.spec.scheme, s.gen))
	if err != nil || !reflect.DeepEqual(res, last.runs[0].res) {
		failures = append(failures, fmt.Sprintf("seed %s: the serial generator-fed rerun differs (err %v)", s.key, err))
	}
	return 1, failures
}

// ---- paper-grid ----

// paperClaims is how many qualitative claims the grid must reproduce.
const paperClaims = 21

// gridSeed is the workload seed of tlsreport's default run.
const gridSeed = 1

// gridWorkers is the paper-grid worker-pool size.
const gridWorkers = 2

type grid struct {
	order *rand.Rand
	// batches is the job list tlsreport submits, batch by batch, and keys
	// their content hashes.
	batches [][]exp.Job
	keys    [][]string
}

// newGrid returns the paper-grid set-up: the seeded submission order and
// the 156-job list with its content hashes.
func newGrid(seed uint64) instance {
	g := &grid{order: rand.New(rand.NewSource(int64(seed))), batches: gridBatches()}
	for _, batch := range g.batches {
		keys := make([]string, len(batch))
		for i, j := range batch {
			keys[i] = j.Key()
		}
		g.keys = append(g.keys, keys)
	}
	return g
}

// gridBatches lists the batches report.Characterize, Figure9, Figure10 and
// Figure11 submit at tlsreport's defaults, in that order.
func gridBatches() [][]exp.Job {
	opt := report.Options{Seed: gridSeed}
	numa, cmp := machine.NUMA16(), machine.CMP8()
	var chars, lazyL2 []exp.Job
	for _, prof := range workload.StandardSuite() {
		chars = append(chars,
			exp.Job{Machine: numa, Scheme: core.MultiTMVEager, Profile: prof, Seed: gridSeed},
			exp.Job{Machine: cmp, Scheme: core.MultiTMVEager, Profile: prof, Seed: gridSeed},
			exp.Job{Machine: numa, Scheme: core.MultiTMVLazy, Profile: prof, Seed: gridSeed})
		if prof.Name == "P3m" {
			lazyL2 = []exp.Job{
				{Machine: numa, Profile: prof, Seed: gridSeed, Sequential: true},
				{Machine: machine.NUMA16BigL2(), Scheme: core.MultiTMVLazy, Profile: prof, Seed: gridSeed},
			}
		}
	}
	return [][]exp.Job{
		chars,
		report.GridJobs(numa, report.Figure9Schemes(), opt),
		report.GridJobs(numa, report.Figure10Schemes(), opt),
		lazyL2,
		report.GridJobs(cmp, report.Figure9Schemes(), opt),
	}
}

// orderBatcher runs each batch on one exp.Runner in a seed-determined order
// and restores submission order in the results. It records every batch for
// the gate and the traced run, and checks that the report layer submits
// exactly the set-up job list.
type orderBatcher struct {
	runner   *exp.Runner
	grid     *grid
	batches  [][]exp.JobResult
	problems []string
}

func (b *orderBatcher) RunBatch(ctx context.Context, jobs []exp.Job) ([]exp.JobResult, error) {
	n := len(b.batches)
	if n >= len(b.grid.keys) || len(b.grid.keys[n]) != len(jobs) {
		b.problems = append(b.problems, fmt.Sprintf("batch %d: the report layer submitted an unexpected batch of %d jobs", n, len(jobs)))
	} else {
		for i, j := range jobs {
			if j.Key() != b.grid.keys[n][i] {
				b.problems = append(b.problems, fmt.Sprintf("batch %d: job %s is not the set-up job %s", n, j.Label(), b.grid.batches[n][i].Label()))
			}
		}
	}
	perm := b.grid.order.Perm(len(jobs))
	shuffled := make([]exp.Job, len(jobs))
	for i, p := range perm {
		shuffled[i] = jobs[p]
	}
	res, err := b.runner.RunBatch(ctx, shuffled)
	out := make([]exp.JobResult, len(jobs))
	for i, p := range perm {
		out[p] = res[i]
	}
	b.batches = append(b.batches, out)
	return out, err
}

// gridReport is one assembled paper-grid: the report-layer outputs of a
// pass.
type gridReport struct {
	chars  []report.AppCharacterization
	fig9   *report.Grid
	fig10  *report.Grid
	lazyL2 report.Cell
	fig11  *report.Grid
}

// sweep runs the four sweeps tlsreport runs, in its order, through b.
func sweep(b *orderBatcher) gridReport {
	opt := report.Options{Seed: gridSeed, Batcher: b}
	var g gridReport
	g.chars = report.Characterize(opt)
	g.fig9 = report.Figure9(opt)
	g.fig10, g.lazyL2 = report.Figure10(opt)
	g.fig11 = report.Figure11(opt)
	return g
}

// claims checks the 21 claims.
func (g gridReport) claims() []report.ExpectationCheck {
	return append(report.CheckFigure9Claims(g.fig9), report.CheckFigure10Claims(g.fig10, g.lazyL2)...)
}

// render writes the grid-derived artifacts as tlsreport prints them.
func (g gridReport) render(checks []report.ExpectationCheck) []byte {
	var buf bytes.Buffer
	report.RenderFigure1(&buf, g.chars)
	report.RenderTable3(&buf, g.chars)
	report.RenderGrid(&buf, g.fig9, "Figure 9. Separation of task state, eager vs lazy AMM (NUMA)")
	report.RenderAverages(&buf, g.fig9)
	report.RenderGrid(&buf, g.fig10, "Figure 10. Architectural (AMM) vs future (FMM) main memory (NUMA)")
	report.RenderAverages(&buf, g.fig10)
	report.RenderGrid(&buf, g.fig11, "Figure 11. Separation of task state, eager vs lazy AMM (CMP)")
	report.RenderAverages(&buf, g.fig11)
	report.RenderChecks(&buf, checks)
	report.RenderSummary(&buf, report.Summarize(g.fig9), 32, 30, 24)
	report.RenderSummary(&buf, report.Summarize(g.fig11), 23, 9, 3)
	return buf.Bytes()
}

// gridPass runs the grid once on runner and gates its report outputs.
func (g *grid) gridPass(runner *exp.Runner) (passOut, *orderBatcher) {
	b := &orderBatcher{runner: runner, grid: g}
	rep := sweep(b)
	checks := rep.claims()
	text := rep.render(checks)

	out := passOut{problems: b.problems}
	for _, batch := range b.batches {
		for _, jr := range batch {
			out.runs = append(out.runs, simRun{
				key: jr.Job.Label(), res: jr.Result, wall: jr.Wall, err: jr.Err,
				timed: !jr.Deduped && !jr.Cached,
			})
		}
	}
	holds := 0
	for _, c := range checks {
		if c.Holds {
			holds++
		} else {
			out.problems = append(out.problems, "claim MISS: "+c.Claim+" ("+c.Note+")")
		}
	}
	if len(checks) != paperClaims {
		out.problems = append(out.problems, fmt.Sprintf("%d claims checked, want %d", len(checks), paperClaims))
	}
	out.rendered = text
	return out, b
}

// reportKey is the expected.json key of the rendered report's digest.
const reportKey = "report"

func (g *grid) pass() passOut {
	out, _ := g.gridPass(&exp.Runner{Workers: gridWorkers})
	return out
}

func (g *grid) verify(passOut) (int, []string) { return 0, nil }

// gridJobs returns the jobs of a recorded pass, in submission order.
func gridJobs(b *orderBatcher) []exp.JobResult {
	var out []exp.JobResult
	for _, batch := range b.batches {
		out = append(out, batch...)
	}
	return out
}

// buildJob constructs the simulator an exp.Job describes over workload w.
// It mirrors exp.Job's own construction for the plain jobs of the grid (no
// ablation, faults or invariant checks), so that the traced run can wrap
// the workload; the traced run checks every result against the runner's.
func buildJob(j exp.Job, w sim.Workload) (*sim.Simulator, error) {
	if j.Ablation != (exp.Ablation{}) || j.Faults != nil || j.Invariants {
		return nil, fmt.Errorf("job %s is not a plain grid job", j.Label())
	}
	if !j.Sequential {
		return sim.New(j.Machine, j.Scheme, w), nil
	}
	// sim.NewSequential, with the workload supplied.
	seq := machine.Sequential(j.Machine)
	seq.CommitPerLine = 0
	seq.CommitFixed = 0
	seq.TokenPass = 0
	seq.DispatchOverhead = 0
	return sim.New(seq, core.SingleTEager, w), nil
}

// runPool runs fn(i) for i in [0, n) on workers goroutines and waits.
func runPool(n, workers int, fn func(i int)) {
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}
