// tlsperf is the repository's benchmark: it runs one named workload of the
// simulator for a fixed host-time budget, checks every simulated result
// against the correctness gate, and prints its metrics by name and unit.
//
// Usage (from the repository root; tlsperf/run.sh builds and runs it):
//
//	bash tlsperf/run.sh --workload bdna-full --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
// --trace 1 it makes one untraced and one traced pass and reports the
// per-layer metrics. The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}. Any failed simulation
// makes the command exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processStart stamps the earliest point the benchmark's own code runs;
// setup_s counts from here to the first timed simulation.
var processStart = time.Now()

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the benchmark's final line.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run is main without the process exit, so tests can drive it.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("tlsperf", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = fs.Uint64("seed", 1, "input seed")
		seconds = fs.Float64("seconds", 20, "host seconds of timed passes (the traced run makes one pass of each kind)")
		traced  = fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		digests = fs.Bool("digests", false, "print the workload's result digests at --seed as JSON and exit (to refresh expected.json)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "tlsperf: need --workload (%s), --seconds > 0, --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	exp, err := loadExpected()
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlsperf: %v\n", err)
		return 1
	}
	if *digests {
		return printDigests(w, *seed, stdout)
	}

	b := bench{workload: w, seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), expected: exp[w.name]}
	var out outcome
	if *traced == 1 {
		out = b.tracedRun(stdout)
	} else {
		out = b.untracedRun(stdout)
	}
	printTable(stdout, w.name, out)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlsperf: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// printTable prints every metric by name and unit, and the error rate.
func printTable(w io.Writer, workload string, out outcome) {
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := out.Metrics[n]
		fmt.Fprintf(w, "%-14s %-34s %14.6g %s\n", workload, n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%-14s %-34s %14.6g %s (%d of %d simulations failed)\n",
		workload, "error_rate", float64(out.Failed)/float64(max(out.Attempted, 1)), "frac", out.Failed, out.Attempted)
}

// resetPeakRSS restarts the kernel's peak-resident-memory mark (VmHWM).
func resetPeakRSS() {
	// Best effort: where it fails, peakRSSMB reports the process lifetime.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the process's peak resident memory since the last
// resetPeakRSS, or since process start.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
