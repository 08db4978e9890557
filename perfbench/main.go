// Command perfbench is the repository's benchmark: it runs one named
// workload for a fixed time, checks every output against a reference, and
// prints its end-to-end metrics (or, with --trace 1, its per-layer
// metrics) as the last line of standard output. Run it through run.sh,
// which builds it from the checkout it sits in; README.md explains the
// workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// env is what every workload gets: the seed its inputs come from, how long
// to measure, the tracer (nil for an untraced run), the checkout root and
// a private directory for files the run writes.
type env struct {
	seed    uint64
	seconds float64
	zipf    float64 // serve-mix's Zipf exponent
	tr      *tracer
	cal     *calibration
	root    string
	work    string
}

// runner is a set-up workload, ready to measure.
type runner interface {
	measure(e *env) (*outcome, error)
	close()
}

// outcome is what one measurement phase found.
type outcome struct {
	attempted, failed int
	failures          []string
	// p50ms is the median wall-clock latency of the workload's operation,
	// run back to back, throughput its completed correct operations per
	// second, and cpuMS the median process CPU time one operation costs.
	p50ms, throughput, cpuMS float64
	// rssMB is the peak RSS of each operation, where a workload measures it.
	rssMB  sample
	report []string
	layers map[string]float64
}

func (o *outcome) fail(err error) {
	o.failed++
	if len(o.failures) < 3 {
		o.failures = append(o.failures, err.Error())
	}
}

const setups = 3 // set-ups per run; setup_s is their median

// calEvery is how often table1 and evalstudy time a calibration block
// between their operations.
const calEvery = time.Second

// calRefMS is the calibration unit's CPU time on the reference host setup_s
// is scaled to: about its time on the 2-core host the benchmark was
// written on, when that host ran fast.
const calRefMS = 25.0

type workloadDef struct {
	name, why string
	setup     func(*env) (runner, error)
}

var workloads = []workloadDef{
	{"table1", "the paper's Table 1 as serial passes; about half the time is in the points-to solver, a third in the dynamic run", setupTable1},
	{"evalstudy", "the eval-elimination study in both DOM modes on small programs; front end, dynamic run and specializer dominate", setupEvalStudy},
	{"serve-mix", "POST /v1/analyze with 80% Zipf repeats of a hot set served from the fact cache and 20% fresh programs", setupServeMix},
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: table1, evalstudy or serve-mix")
		seed     = flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Float64("seconds", 10, "how long to measure")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
		zipf     = flag.Float64("zipf", defaultZipf, "exponent of serve-mix's Zipf picks from the hot set")
		calib    = flag.Int("calibrate", 0, "time this many calibration units, print their CPU times and exit")
		manifest = flag.Bool("write-manifest", false, "write BENCHMARK.json into the current directory and exit")
		refChild = flag.Bool("reference", false, "analyze the JSON list of programs on standard input without cache or server and exit")
	)
	flag.Parse()
	if *refChild {
		if err := referenceChild(); err != nil {
			fatal(err)
		}
		return
	}
	if *calib > 0 {
		if err := calibrate(*calib); err != nil {
			fatal(err)
		}
		return
	}
	if *manifest {
		if err := writeManifest("BENCHMARK.json"); err != nil {
			fatal(err)
		}
		return
	}
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) || *zipf <= 0 || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload table1|evalstudy|serve-mix --seed N --seconds S --trace 0|1 [--zipf S]")
		os.Exit(2)
	}
	root, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	e := &env{seed: *seed, seconds: *seconds, zipf: *zipf, root: root}
	if *trace == 1 {
		e.tr = newTracer()
	}
	e.work, err = os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(e.work)
	// An interrupted run still removes what it wrote.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		os.RemoveAll(e.work)
		os.Exit(1)
	}()
	if err := run(def, e); err != nil {
		os.RemoveAll(e.work)
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func run(def *workloadDef, e *env) error {
	host := fingerprint(e.root)
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%v zipf=%g\n", def.name, e.seed, e.seconds, e.tr != nil, e.zipf)
	var (
		r                   runner
		setupWall, setupCPU sample
	)
	for i := 0; i < setups; i++ {
		// Only one set-up is held at a time, so the run's memory is that
		// of one set-up, not two.
		if r != nil {
			r.close()
			r = nil
			runtime.GC()
		}
		// Set-up CPU time includes that of serve-mix's reference children.
		start, cpu0 := time.Now(), cpuTime()+childCPUTime()
		next, err := def.setup(e)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupWall = append(setupWall, time.Since(start).Seconds())
		setupCPU = append(setupCPU, (cpuTime() + childCPUTime() - cpu0).Seconds())
		r = next
	}
	defer r.close()
	// The peak RSS of serve-mix is its high-water mark from here on;
	// table1 and evalstudy report the median of their passes' own. The
	// set-ups' garbage goes back to the kernel first, so the mark starts
	// from what the measurement holds live.
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return err
	}
	s0, t0, _ := cpuTicks()
	// Calibration blocks run before and after the measurement, and between
	// its operations (every calEvery on table1 and evalstudy, between
	// serve-mix's phases).
	e.cal = newCalibration(calEvery)
	if err := e.cal.block(); err != nil {
		return err
	}
	out, err := r.measure(e)
	if err != nil {
		return err
	}
	if err := e.cal.block(); err != nil {
		return err
	}
	s1, t1, _ := cpuTicks()
	calMS := e.cal.mean()
	costCal := out.cpuMS / calMS
	// Set-up time is its CPU time at the speed of a host on which a
	// calibration unit takes calRefMS, for the reason cpu_cal_per_op is in
	// calibration units.
	setupS := setupCPU.median() * calRefMS / calMS
	steal := stealShare(s0, t0, s1, t1)
	rss := out.rssMB.median()
	if len(out.rssMB) == 0 {
		if rss, err = peakRSSMB(); err != nil {
			return err
		}
	}
	fmt.Printf("setup_s: %.4g s, the median of %d set-ups' CPU time (%s s) scaled to a %g ms calibration unit; wall time %s s\n",
		setupS, setups, setupCPU.format(), calRefMS, setupWall.format())
	fmt.Printf("peak_rss_mb: %.4g MB\n", rss)
	fmt.Printf("host steal: %.1f%% of all CPU time during the measurement went to other guests\n", 100*steal)
	fmt.Printf("calibration: %.4g ms CPU time per unit, mean of %d blocks %s\n", calMS, len(e.cal.blocks), e.cal.blocks.format())
	for _, line := range out.report {
		fmt.Println(line)
	}
	for _, f := range out.failures {
		fmt.Fprintln(os.Stderr, "perfbench: failed operation:", f)
	}
	metrics := map[string]metricValue{}
	// The wall-clock figures, CPU time per operation in milliseconds and
	// the calibration are recorded, and compare.py compares them, but they
	// are not gated: the host's own changes of speed move them by more
	// than the widest bound allowed (README.md, "Host speed").
	ungated := map[string]metricValue{
		"wall.p50_ms":           {out.p50ms, "ms"},
		"wall.throughput_per_s": {out.throughput, "1/s"},
		"cpu_ms_per_op":         {out.cpuMS, "ms"},
		"calibration_ms":        {calMS, "ms"},
		"setup_wall_s":          {setupWall.median(), "s"},
	}
	fmt.Printf("cpu_ms_per_op: %.4g ms\n", out.cpuMS)
	if e.tr == nil {
		metrics["setup_s"] = metricValue{setupS, "s"}
		metrics["peak_rss_mb"] = metricValue{rss, "MB"}
		metrics["cpu_cal_per_op"] = metricValue{costCal, "cal"}
		fmt.Printf("cpu_cal_per_op: %.4g calibration units\n", costCal)
	} else {
		out.layers["traced.p50_ms"] = out.p50ms
		out.layers["traced.throughput_per_s"] = out.throughput
		out.layers["traced.cpu_ms_per_op"] = out.cpuMS
		out.layers["traced.cpu_cal_per_op"] = costCal
		for _, m := range perLayer {
			metrics[m.Name] = metricValue{out.layers[m.Name], m.Unit}
			fmt.Printf("%s: %.6g %s\n", m.Name, out.layers[m.Name], m.Unit)
		}
		// One file per workload, replaced by each traced run, so repeated
		// runs do not pile spans up in the checkout.
		path := filepath.Join(e.root, ".bench_build", "spans", def.name+".jsonl.gz")
		if err := e.tr.write(path); err != nil {
			return err
		}
		fmt.Printf("spans: %d written to %s\n", len(e.tr.spans), path)
	}
	record, err := json.Marshal(map[string]any{
		"workload": def.name, "seed": e.seed, "trace": e.tr != nil, "zipf": e.zipf, "host": host, "steal": steal, "ungated": ungated,
	})
	if err != nil {
		return err
	}
	fmt.Printf("record %s\n", record)
	final, err := json.Marshal(map[string]any{
		"correct":   out.failed == 0 && out.attempted > 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(final))
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// cpuTime is the CPU time every thread of the process has used, user and
// system. The kernel leaves out time the hypervisor gave to other guests,
// so unlike wall time it does not grow when a shared host is busy.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
