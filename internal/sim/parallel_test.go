package sim

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/workload"
)

// runPrefetched builds and runs one simulation in parallel mode.
func runPrefetched(mach *machine.Config, sch core.Scheme, p workload.Profile, seed uint64, n int) Result {
	s := New(mach, sch, workload.NewGenerator(p, seed))
	s.SetParallel(n)
	return s.Run()
}

// The tentpole acceptance test: for every app × scheme, the parallel loop
// at every worker count — including 1, which must select the serial code
// path — produces a Result deeply identical to the serial loop, on both
// machine families.
func TestParallelMatchesSerialGrid(t *testing.T) {
	machines := []*machine.Config{machine.NUMA16(), machine.CMP8()}
	apps := workload.Apps()
	schemes := allSchemes()
	if testing.Short() {
		machines = machines[:1]
		apps = apps[:3]
		schemes = []core.Scheme{core.SingleTEager, core.MultiTMVLazy, core.MultiTMVFMM}
	}
	for _, mach := range machines {
		for _, app := range apps {
			p := app.Scale(0.1, 0.1, 0.25)
			for _, sch := range schemes {
				serial := Run(mach, sch, p, 99)
				for _, n := range []int{1, 2, 8} {
					got := runPrefetched(mach, sch, p, 99, n)
					if !reflect.DeepEqual(serial, got) {
						t.Errorf("%s/%v/%s parallel=%d: result differs from serial (%d vs %d cycles, %d vs %d events)",
							mach.Name, sch, p.Name, n, got.ExecCycles, serial.ExecCycles, got.Events, serial.Events)
					}
				}
			}
		}
	}
}

// Fault-injected runs must stay identical too: squashes are the events
// most sensitive to ordering (they roll back several processors in one
// same-cycle step) and the injector adds more of them.
func TestParallelMatchesSerialWithFaults(t *testing.T) {
	mach := machine.NUMA16()
	p := tinyProfile()
	fcfg := fault.Config{Seed: 7, SquashProb: 0.2, DelayProb: 0.05, DelayCycles: 40, StallProb: 0.05, StallCycles: 30}
	build := func(n int) *Simulator {
		s := New(mach, core.MultiTMVEager, workload.NewGenerator(p, 99))
		s.InjectFaults(fault.NewPlan(fcfg))
		if n > 1 {
			s.SetParallel(n)
		}
		return s
	}
	serial := build(1).Run()
	if serial.SquashEvents == 0 {
		t.Fatal("fault plan injected no squashes; the test is vacuous")
	}
	for _, n := range []int{2, 8} {
		if got := build(n).Run(); !reflect.DeepEqual(serial, got) {
			t.Errorf("parallel=%d: fault-injected result differs from serial", n)
		}
	}
}

// Checkpoints must be mode-portable: one taken mid-run by a parallel
// simulator restores into a serial one (and vice versa) and the resumed
// run completes identically to the uninterrupted serial run.
func TestParallelCheckpointCrossModeRestore(t *testing.T) {
	mach := machine.NUMA16()
	p := workload.Tree().Scale(0.1, 0.1, 0.25)
	sch := core.MultiTMVLazy
	golden := Run(mach, sch, p, 99)
	build := func(n int) func() *Simulator {
		return func() *Simulator {
			s := New(mach, sch, workload.NewGenerator(p, 99))
			if n > 1 {
				s.SetParallel(n)
			}
			return s
		}
	}

	// Parallel runs checkpoint without perturbing their (serial-identical)
	// results; each capture mode restores into each run mode.
	for _, capN := range []int{1, 8} {
		ck, withCkpt := captureAt(t, build(capN), max(1, golden.Commits/2))
		if !reflect.DeepEqual(golden, withCkpt) {
			t.Errorf("capture parallel=%d: taking a checkpoint perturbed the run", capN)
		}
		for _, resN := range []int{1, 8} {
			resumed := build(resN)()
			if err := resumed.Restore(ck); err != nil {
				t.Errorf("capture parallel=%d restore parallel=%d: %v", capN, resN, err)
				continue
			}
			if got := resumed.Run(); !reflect.DeepEqual(golden, got) {
				t.Errorf("capture parallel=%d restore parallel=%d: resumed result differs (%d vs %d cycles)",
					capN, resN, got.ExecCycles, golden.ExecCycles)
			}
		}
	}
}

// The sequential baseline (one processor) runs in parallel mode too.
func TestParallelSequentialBaseline(t *testing.T) {
	mach := machine.NUMA16()
	p := workload.Tree().Scale(0.1, 0.1, 0.25)
	golden := RunSequential(mach, p, 99)
	s := NewSequential(mach, p, 99)
	s.SetParallel(4)
	if got := s.Run(); !reflect.DeepEqual(golden, got) {
		t.Error("parallel sequential baseline differs from serial")
	}
}

// Interrupting a parallel run halts at a commit boundary exactly like the
// serial loop, and the checkpoint resumes to the identical result.
func TestParallelInterruptResume(t *testing.T) {
	mach := machine.NUMA16()
	p := workload.Euler().Scale(0.1, 0.1, 0.25)
	build := func(n int) *Simulator {
		s := New(mach, core.MultiTMVLazy, workload.NewGenerator(p, 99))
		if n > 1 {
			s.SetParallel(n)
		}
		return s
	}
	golden := build(1).Run()

	s := build(8)
	var last *Checkpoint
	calls := 0
	s.SetAutoCheckpoint(1)
	s.SetCheckpointSink(func(c *Checkpoint) {
		last = c
		calls++
		if calls == 5 {
			s.Interrupt()
		}
	})
	if res := s.Run(); !s.Halted() || res.Commits != 0 {
		t.Fatalf("interrupted parallel run: halted=%v result=%+v", s.Halted(), res)
	}
	resumed := build(8)
	if err := resumed.Restore(last); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got := resumed.Run(); !reflect.DeepEqual(golden, got) {
		t.Errorf("parallel interrupt-resume differs from uninterrupted serial run")
	}
}

// SetParallel is a pre-run knob only.
func TestSetParallelAfterStartPanics(t *testing.T) {
	mach := machine.NUMA16()
	p := workload.Tree().Scale(0.1, 0.1, 0.25)
	s := New(mach, core.MultiTMVLazy, workload.NewGenerator(p, 99))
	if s.Parallel() != 0 {
		t.Fatalf("fresh simulator reports parallel=%d", s.Parallel())
	}
	s.SetParallel(8)
	if s.Parallel() != 8 {
		t.Fatalf("Parallel() = %d after SetParallel(8)", s.Parallel())
	}
	s.SetParallel(1) // back to serial is allowed before Run
	if s.Parallel() != 0 {
		t.Fatalf("Parallel() = %d after SetParallel(1)", s.Parallel())
	}
	s.Run()
	defer func() {
		if recover() == nil {
			t.Error("SetParallel after Run did not panic")
		}
	}()
	s.SetParallel(8)
}

// SetParallel only records the worker count: a simulator that never runs —
// here one whose Restore fails — must not leave prefetch workers behind.
func TestSetParallelWithoutRunStartsNoGoroutines(t *testing.T) {
	mach := machine.NUMA16()
	p := workload.Tree().Scale(0.1, 0.1, 0.25)
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		s := New(mach, core.MultiTMVLazy, workload.NewGenerator(p, 99))
		s.SetParallel(4)
		if err := s.Restore(&Checkpoint{Machine: "no-such-machine"}); err == nil {
			t.Fatal("Restore of a mismatched checkpoint succeeded")
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before, %d after 10 unrun parallel simulators", before, after)
	}
}
