package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"reflect"
	"time"

	"repro/internal/exp"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
)

// tracedOut is what an instance's traced run measured: its simulations
// and failures for the gate, and the per-layer metrics.
type tracedOut struct {
	passOut
	metrics map[string]metric
}

// layerRun is what the traced run feeds the per-layer metrics.
type layerRun struct {
	c        counts
	est      estimates
	calls    int64   // Task calls during the traced simulations
	ops      int64   // ops those calls returned
	tasks    int64   // tasks the simulations ran
	busyS    float64 // in-situ time inside Task
	runS     float64 // time inside Simulator.Run
	allocMB  float64 // estimated bytes the Task calls allocated
	refWallS float64 // the untraced pass
	wallS    float64 // the traced pass
	rt       rtStats // Go runtime costs of the untraced pass

	expJobs, expAttempts int
	expWallSumS          float64
	expWorkers           int
	expPassS             float64

	assembleS float64

	spans, dropped uint64
}

// tracedRun makes the traced run: one untraced reference pass, one traced
// pass whose simulations must equal the untraced ones, and the layer
// replays.
func (b *bench) tracedRun(w io.Writer) outcome {
	g := newGate(b.expected)
	t := b.workload.setup(passSeed(b.seed, 0)).traced()
	attempted, failed := g.checkPass(t.passOut)
	if e, ok := t.metrics["sim.explained_frac"]; ok && e.Value < explainedFloor {
		fmt.Fprintf(w, "%s: sim.explained_frac %.3f < %.2f: suite missing a layer\n", b.workload.name, e.Value, explainedFloor)
	}
	fmt.Fprintf(w, "%s: tracing overhead %.1f%% (traced vs untraced wall)\n",
		b.workload.name, 100*t.metrics["trace.overhead_frac"].Value)
	return outcome{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: t.metrics}
}

// exportSpans renders the spans with the fleet Perfetto exporter and
// validates the file; it returns a failure message or "".
func exportSpans(spans []trace.Span) string {
	if len(spans) == 0 {
		return "traced run recorded no spans"
	}
	var buf bytes.Buffer
	if err := trace.ExportPerfetto(&buf, "", spans); err != nil {
		return "perfetto export: " + err.Error()
	}
	st, err := report.ValidatePerfetto(&buf)
	if err != nil {
		return "perfetto validation: " + err.Error()
	}
	if st.Slices == 0 {
		return "perfetto export holds no slices"
	}
	return ""
}

// retained drains a retaining tracer and reports its drops as a failure.
func retained(tr *trace.Tracer, l *layerRun, out *passOut) []trace.Span {
	spans := tr.Drain()
	l.spans += uint64(len(spans))
	l.dropped += tr.Dropped()
	if d := tr.Dropped(); d != 0 {
		out.problems = append(out.problems, fmt.Sprintf("tracer %s dropped %d spans", tr.Proc(), d))
	}
	return spans
}

func (s *single) traced() tracedOut {
	var out tracedOut
	var l layerRun

	before := readRuntime()
	start := time.Now()
	refSim := s.build(s.input)
	ref, err := runSim(refSim)
	l.refWallS = time.Since(start).Seconds()
	l.rt = readRuntime().since(before)
	out.runs = append(out.runs, simRun{key: s.key, res: ref, err: err})

	tr := trace.New("tlsperf")
	tr.Retain()
	passID := tr.NextID()
	passStart := tr.Now()
	wrapped, timer := wrapWorkload(s.input, tr)
	sm := s.build(wrapped)
	reg := obs.NewRegistry()
	sm.Observe(counterOnly(reg))
	runID := tr.NextID()
	timer.parent.Store(runID)
	runStart := tr.Now()
	res, err := runSim(sm)
	tr.Since(runStart, trace.Span{ID: runID, Parent: passID, Name: "Simulator.Run", Kind: "run", Note: s.key})
	tr.Since(passStart, trace.Span{ID: passID, Name: "pass", Kind: "pass"})
	l.wallS = time.Since(passStart).Seconds()
	l.runS = time.Since(runStart).Seconds()
	out.runs = append(out.runs, simRun{key: s.key, res: res, err: err})
	if !reflect.DeepEqual(ref, res) {
		out.problems = append(out.problems, "traced result differs from the untraced one")
	}
	if msg := exportSpans(retained(tr, &l, &out.passOut)); msg != "" {
		out.problems = append(out.problems, msg)
	}

	l.c.add(res)
	l.c.addParallel(sm.ParallelStats())
	l.c.messages = reg.CounterValue("net_messages")
	l.c.memOps = uint64(timer.memOps.Load())
	l.calls, l.ops, l.tasks = timer.calls.Load(), timer.ops.Load(), int64(res.Tasks)
	l.busyS = float64(timer.busyNs.Load()) / 1e9
	l.allocMB = allocPerCall(s.input, s.spec.parallel <= 1) * float64(l.calls) / (1 << 20)
	l.est = estimate(l.c, replayCosts(replayStreams(s.input), s.spec.machine(), s.spec.parallel > 1))
	l.expJobs, l.expAttempts, l.expWorkers = 1, 1, 1
	l.expWallSumS, l.expPassS = l.refWallS, l.refWallS
	out.metrics = l.metrics()
	return out
}

func (g *grid) traced() tracedOut {
	var out tracedOut
	var l layerRun

	// The untraced reference pass.
	before := readRuntime()
	start := time.Now()
	ref, _ := g.gridPass(&exp.Runner{Workers: gridWorkers})
	l.refWallS = time.Since(start).Seconds()
	l.rt = readRuntime().since(before)
	out.runs = append(out.runs, ref.runs...)
	out.problems = append(out.problems, ref.problems...)

	// The orchestrator's own spans: one per attempt, from exp.Runner.Tracer.
	expTr := trace.New("exp.Runner")
	expTr.Retain()
	start = time.Now()
	expPass, b := g.gridPass(&exp.Runner{Workers: gridWorkers, Tracer: expTr})
	l.expPassS = time.Since(start).Seconds()
	out.runs = append(out.runs, expPass.runs...)
	out.problems = append(out.problems, expPass.problems...)
	out.rendered = ref.rendered
	if !bytes.Equal(ref.rendered, expPass.rendered) {
		out.problems = append(out.problems, "traced report differs from the untraced one")
	}
	jobs := gridJobs(b)
	l.expJobs, l.expWorkers = len(jobs), gridWorkers
	for _, jr := range jobs {
		l.expAttempts += jr.Attempts
		l.expWallSumS += jr.Wall.Seconds()
	}

	// The in-situ pass: every job again on gridWorkers goroutines, with its
	// workload wrapped, checked against the runner's result.
	tr := trace.New("tlsperf")
	tr.Retain()
	type jobOut struct {
		res    sim.Result
		err    error
		timer  *taskTimer
		runS   float64
		netMsg uint64
	}
	outs := make([]jobOut, len(jobs))
	passID := tr.NextID()
	passStart := tr.Now()
	runPool(len(jobs), gridWorkers, func(i int) {
		j := jobs[i].Job
		wrapped, timer := wrapWorkload(workload.NewGenerator(j.Profile, j.Seed), tr)
		sm, err := buildJob(j, wrapped)
		if err != nil {
			outs[i] = jobOut{err: err, timer: timer}
			return
		}
		reg := obs.NewRegistry()
		sm.Observe(counterOnly(reg))
		runID := tr.NextID()
		timer.parent.Store(runID)
		runStart := tr.Now()
		res, err := runSim(sm)
		tr.Since(runStart, trace.Span{ID: runID, Parent: passID, Name: "Simulator.Run", Kind: "run", Note: j.Label()})
		outs[i] = jobOut{res: res, err: err, timer: timer, runS: time.Since(runStart).Seconds(),
			netMsg: reg.CounterValue("net_messages")}
	})
	tr.Since(passStart, trace.Span{ID: passID, Name: "pass", Kind: "pass"})
	l.wallS = time.Since(passStart).Seconds()

	perApp := map[string]*counts{}
	callsByApp := map[string]int64{}
	for i, o := range outs {
		j := jobs[i]
		out.runs = append(out.runs, simRun{key: j.Job.Label(), res: o.res, err: o.err})
		if o.err == nil && !reflect.DeepEqual(o.res, j.Result) {
			out.problems = append(out.problems, j.Job.Label()+": traced result differs from the runner's")
		}
		c := perApp[j.Job.Profile.Name]
		if c == nil {
			c = &counts{}
			perApp[j.Job.Profile.Name] = c
		}
		for _, c := range []*counts{c, &l.c} {
			c.add(o.res)
			c.messages += o.netMsg
			c.memOps += uint64(o.timer.memOps.Load())
		}
		callsByApp[j.Job.Profile.Name] += o.timer.calls.Load()
		l.calls += o.timer.calls.Load()
		l.ops += o.timer.ops.Load()
		l.tasks += int64(o.res.Tasks)
		l.busyS += float64(o.timer.busyNs.Load()) / 1e9
		l.runS += o.runS
	}
	spans := append(retained(tr, &l, &out.passOut), retained(expTr, &l, &out.passOut)...)
	if msg := exportSpans(spans); msg != "" {
		out.problems = append(out.problems, msg)
	}

	// Layer costs per app profile, on the machine most of the grid runs.
	cfg := machine.NUMA16()
	for _, prof := range workload.StandardSuite() {
		c := perApp[prof.Name]
		if c == nil {
			continue
		}
		gen := workload.NewGenerator(prof, gridSeed)
		l.est.add(estimate(*c, replayCosts(replayStreams(gen), cfg, false)))
		l.allocMB += allocPerCall(gen, true) * float64(callsByApp[prof.Name]) / (1 << 20)
	}
	l.assembleS = assembleSeconds(b.batches)
	out.metrics = l.metrics()
	return out
}

// counterOnly installs reg's counters (net_messages among them) with the
// gauge sampler's period out of reach: only the counters are read, and
// sampling every few thousand cycles would dominate the tracing overhead.
func counterOnly(reg *obs.Registry) obs.Config {
	return obs.Config{Registry: reg, SamplePeriod: 1 << 62}
}

// replayBatcher answers each batch from a recorded pass, so the report
// layer's assembly runs without simulating.
type replayBatcher struct {
	batches [][]exp.JobResult
	next    int
}

func (r *replayBatcher) RunBatch(_ context.Context, jobs []exp.Job) ([]exp.JobResult, error) {
	if r.next >= len(r.batches) || len(r.batches[r.next]) != len(jobs) {
		return nil, fmt.Errorf("replay: batch %d does not match the recorded pass", r.next)
	}
	r.next++
	return r.batches[r.next-1], nil
}

// assembleSeconds times the report layer alone on recorded batches: grid
// assembly, the claim checks and rendering. It returns the median of
// several repetitions.
func assembleSeconds(batches [][]exp.JobResult) float64 {
	var samples []float64
	var total time.Duration
	for len(samples) < 5 || total < 200*time.Millisecond {
		start := time.Now()
		rb := &replayBatcher{batches: batches}
		opt := report.Options{Seed: gridSeed, Batcher: rb}
		rep := gridReport{chars: report.Characterize(opt), fig9: report.Figure9(opt)}
		rep.fig10, rep.lazyL2 = report.Figure10(opt)
		rep.fig11 = report.Figure11(opt)
		rep.render(rep.claims())
		d := time.Since(start)
		total += d
		samples = append(samples, d.Seconds())
		if len(samples) == 1000 {
			fmt.Fprintln(os.Stderr, "tlsperf: report assembly timing did not converge")
			break
		}
	}
	return median(samples)
}

// metrics names the per-layer metrics.
func (l layerRun) metrics() map[string]metric {
	frac := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	perOp := func(s float64, n int64) float64 { return frac(s*1e9, float64(n)) }
	c := l.c
	costOf := func(est float64, n uint64) float64 { return frac(est*1e9, float64(n)) }
	return map[string]metric{
		"workload.task_calls":  {float64(l.calls), "count"},
		"workload.ops":         {float64(l.ops), "count"},
		"workload.useful_frac": {frac(float64(l.tasks), float64(l.calls)), "frac"},
		"workload.busy_s":      {l.busyS, "s"},
		"workload.ns_per_op":   {perOp(l.busyS, l.ops), "ns"},
		"workload.alloc_mb":    {l.allocMB, "MB"},

		"coherence.reads":         {float64(c.dirReads), "count"},
		"coherence.writes":        {float64(c.dirWrites), "count"},
		"coherence.violations":    {float64(c.violations), "count"},
		"coherence.ns_per_access": {costOf(l.est.dir, c.dirReads+c.dirWrites), "ns"},
		"coherence.est_s":         {l.est.dir, "s"},

		"memsys.cache.ns_per_access": {costOf(l.est.cache, c.memOps), "ns"},
		"memsys.cache.est_s":         {l.est.cache, "s"},
		"memsys.overflow.spills":     {float64(c.spills), "count"},
		"memsys.overflow.retrievals": {float64(c.retrievals), "count"},
		"memsys.overflow.ns_per_op":  {costOf(l.est.overflow, c.spills+c.retrievals), "ns"},
		"memsys.overflow.est_s":      {l.est.overflow, "s"},
		"memsys.mhb.appends":         {float64(c.mhbAppends), "count"},
		"memsys.mhb.restored":        {float64(c.mhbRestored), "count"},
		"memsys.mhb.ns_per_op":       {costOf(l.est.mhb, c.mhbAppends+c.mhbRestored), "ns"},
		"memsys.mhb.est_s":           {l.est.mhb, "s"},
		"memsys.memory.writebacks":   {float64(c.writebacks), "count"},
		"memsys.memory.rejected":     {float64(c.rejected), "count"},

		"interconnect.messages":          {float64(c.messages), "count"},
		"interconnect.bank_queue_cycles": {float64(c.bankQueue), "cycles"},
		"interconnect.if_queue_cycles":   {float64(c.ifQueue), "cycles"},
		"interconnect.ns_per_transfer":   {costOf(l.est.net, c.messages), "ns"},
		"interconnect.est_s":             {l.est.net, "s"},

		"event.fired":        {float64(c.events), "count"},
		"event.ns_per_event": {costOf(l.est.event, c.events), "ns"},
		"event.est_s":        {l.est.event, "s"},
		"event.windows":      {float64(c.windows), "count"},
		"event.stall_frac":   {frac(float64(c.stalls), float64(c.windows)), "frac"},

		"sim.run_s":             {l.runS, "s"},
		"sim.self_s":            {l.runS - l.busyS, "s"},
		"sim.explained_frac":    {frac(l.busyS+l.est.total(), l.runS), "frac"},
		"sim.commits":           {float64(c.commits), "count"},
		"sim.squash_events":     {float64(c.squashEvents), "count"},
		"sim.tasks_squashed":    {float64(c.squashed), "count"},
		"sim.oracle_checks":     {float64(c.oracleChecks), "count"},
		"sim.prefetch_hit_frac": {frac(float64(c.pfHits), float64(c.pfHits+c.pfMisses)), "frac"},

		"exp.jobs":           {float64(l.expJobs), "count"},
		"exp.attempts":       {float64(l.expAttempts), "count"},
		"exp.job_wall_sum_s": {l.expWallSumS, "s"},
		"exp.worker_util":    {frac(l.expWallSumS, float64(l.expWorkers)*l.expPassS), "frac"},

		"report.assemble_s": {l.assembleS, "s"},

		"runtime.alloc_mb":  {l.rt.allocMB, "MB"},
		"runtime.gc_cpu_s":  {l.rt.gcCPUs, "s"},
		"runtime.gc_cycles": {l.rt.gcCycles, "count"},

		"trace.overhead_frac": {frac(l.wallS, l.refWallS) - 1, "frac"},
		"trace.spans":         {float64(l.spans), "count"},
		"trace.dropped":       {float64(l.dropped), "count"},
	}
}
