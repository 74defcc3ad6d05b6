package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"time"

	"repro/internal/sim"
)

// A run takes at least setupReps set-up samples, and more until
// setupSampled seconds of set-up are sampled or setupMaxReps samples are
// taken; setup_s is their median. Each extra sample times back-to-back
// set-ups for at least setupBatch and divides by their number, because
// single set-ups of a millisecond or less are mostly timer and GC jitter.
const (
	setupReps    = 5
	setupSampled = 1.0
	setupMaxReps = 64
	setupBatch   = 20 * time.Millisecond
)

// bench is one invocation of the benchmark.
type bench struct {
	workload workloadDef
	seed     uint64
	budget   time.Duration
	expected map[string]string
}

// expectedJSON holds the shipped result digests: workload -> key -> digest.
// Keys are the seed for the single-run workloads, and the job label (plus
// "report" for the rendered artifacts) for paper-grid.
//
//go:embed expected.json
var expectedJSON []byte

func loadExpected() (map[string]map[string]string, error) {
	var m map[string]map[string]string
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return m, nil
}

// digest hashes every field of a Result.
func digest(r sim.Result) string {
	data, err := json.Marshal(r)
	if err != nil {
		data = []byte("unencodable: " + err.Error())
	}
	return digestBytes(data)
}

func digestBytes(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// gate is the correctness gate: it checks each simulation and rendered
// report against the shipped digests and against the first time the same
// key was seen in this process.
type gate struct {
	expected map[string]string
	seen     map[string]string
	// shipped counts the digests compared against shipped values.
	shipped int
}

func newGate(expected map[string]string) *gate {
	return &gate{expected: expected, seen: make(map[string]string)}
}

// compare checks one digest under key.
func (g *gate) compare(key, d string) error {
	if want, ok := g.expected[key]; ok {
		g.shipped++
		if want != d {
			return fmt.Errorf("%s: digest %s, expected %s", key, d, want)
		}
	}
	if prev, ok := g.seen[key]; ok && prev != d {
		return fmt.Errorf("%s: digest %s differs from this run's earlier %s", key, d, prev)
	}
	g.seen[key] = d
	return nil
}

// check gates one simulation.
func (g *gate) check(r simRun) error {
	switch {
	case r.err != nil:
		return fmt.Errorf("%s: %w", r.key, r.err)
	case r.res.OracleViolations != 0:
		return fmt.Errorf("%s: %d committed reads observed the wrong version", r.key, r.res.OracleViolations)
	case r.res.Commits != r.res.Tasks:
		return fmt.Errorf("%s: %d of %d tasks committed", r.key, r.res.Commits, r.res.Tasks)
	}
	return g.compare(r.key, digest(r.res))
}

// checkPass gates a whole pass and returns how many simulations it
// attempted and how many failed. A failed claim or a wrong report counts
// as one failure each.
func (g *gate) checkPass(p passOut) (attempted, failed int) {
	for _, r := range p.runs {
		attempted++
		if err := g.check(r); err != nil {
			failed++
			fmt.Fprintln(os.Stderr, "tlsperf: FAIL", err)
		}
	}
	problems := p.problems
	if p.rendered != nil {
		if err := g.compare(reportKey, digestBytes(p.rendered)); err != nil {
			problems = append(problems, err.Error())
		}
	}
	for _, msg := range problems {
		failed++
		fmt.Fprintln(os.Stderr, "tlsperf: FAIL", msg)
	}
	return attempted, min(failed, attempted)
}

// maxPasses caps the timed passes of one run; it also spaces the runs'
// pass seeds apart.
const maxPasses = 64

// passSeed is the input seed of pass i of a run started with --seed seed:
// every pass simulates fresh inputs, and --seed 1 uses seeds 1, 2, ...,
// whose digests are shipped.
func passSeed(seed uint64, i int) uint64 {
	return (seed-1)*maxPasses + uint64(i) + 1
}

// untracedRun measures the end-to-end metrics. Each pass builds its inputs
// (a set-up sample; the first counts from process start) and then runs
// them timed, until the budget is spent; the untimed checks follow.
func (b *bench) untracedRun(w io.Writer) outcome {
	g := newGate(b.expected)
	var setups, walls, rates, jobMs, rss []float64
	var inst instance
	var last passOut
	attempted, failed := 0, 0
	loop := time.Now()
	for i := 0; i < maxPasses; i++ {
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		inst = nil // let the previous pass's inputs be collected
		inst = b.workload.setup(passSeed(b.seed, i))
		setups = append(setups, time.Since(start).Seconds())
		// Collect the previous pass's garbage and return it to the OS now,
		// so that no timed pass pays for another's, and each pass's peak
		// resident memory is its own.
		debug.FreeOSMemory()
		resetPeakRSS()

		start = time.Now()
		last = inst.pass()
		wall := time.Since(start)
		rss = append(rss, peakRSSMB())
		a, f := g.checkPass(last)
		attempted += a
		failed += f
		var cycles float64
		for _, r := range last.runs {
			cycles += float64(r.res.ExecCycles)
			if r.timed {
				jobMs = append(jobMs, float64(r.wall)/float64(time.Millisecond))
			}
		}
		walls = append(walls, wall.Seconds())
		rates = append(rates, cycles/1e6/wall.Seconds())
		fmt.Fprintf(w, "%s: pass %d seed %d: set-up %.4fs, %.4fs, %.0f simulated cycles\n", b.workload.name, i, passSeed(b.seed, i), setups[i], wall.Seconds(), cycles)
		if time.Since(loop).Seconds()+median(walls) > b.budget.Seconds() {
			break
		}
	}
	a, failures := inst.verify(last)
	attempted += a
	for _, msg := range failures {
		fmt.Fprintln(os.Stderr, "tlsperf: FAIL", msg)
	}
	failed = min(failed+len(failures), attempted)
	sampled := 0.0
	for _, s := range setups[1:] { // the first sample also holds process start-up
		sampled += s
	}
	for len(setups) < setupReps || (sampled < setupSampled && len(setups) < setupMaxReps) {
		start := time.Now()
		n := 0
		for n == 0 || time.Since(start) < setupBatch {
			b.workload.setup(passSeed(b.seed, len(setups)+n))
			n++
		}
		batch := time.Since(start).Seconds()
		setups = append(setups, batch/float64(n))
		sampled += batch
	}
	fmt.Fprintf(w, "%s: %d timed passes, %d job samples, %d of %d simulations checked against shipped digests\n",
		b.workload.name, len(walls), len(jobMs), g.shipped, attempted)

	return outcome{
		Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: map[string]metric{
			"wall_s":            {median(walls), "s"},
			"sim_mcycles_per_s": {median(rates), "Mcycles/s"},
			"job_p50_ms":        {quantile(jobMs, 0.5), "ms"},
			"job_p90_ms":        {quantile(jobMs, 0.9), "ms"},
			"peak_rss_mb":       {median(rss), "MB"},
			"setup_s":           {median(setups), "s"},
		},
	}
}

// printDigests prints the digests one untimed pass produces, in the
// expected.json layout, for refreshing the shipped values.
func printDigests(w workloadDef, seed uint64, out io.Writer) int {
	p := w.setup(seed).pass()
	m := map[string]string{}
	for _, r := range p.runs {
		if r.err != nil {
			fmt.Fprintf(os.Stderr, "tlsperf: %s: %v\n", r.key, r.err)
			return 1
		}
		m[r.key] = digest(r.res)
	}
	if p.rendered != nil {
		m[reportKey] = digestBytes(p.rendered)
	}
	data, err := json.MarshalIndent(map[string]map[string]string{w.name: m}, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlsperf: %v\n", err)
		return 1
	}
	fmt.Fprintln(out, string(data))
	return 0
}
