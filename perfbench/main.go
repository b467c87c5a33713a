// Command perfbench is the repository's benchmark. It drives one named
// workload through the public Go and HTTP APIs of the governor service and
// the paper-reproduction pipeline, checks that the outputs are correct, and
// prints its metrics by name and unit, ending with one JSON line:
//
//	perfbench --workload routed-step --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the JSON carries the end-to-end metrics; with --trace 1
// the run is split into an untraced and a traced half, spans are recorded
// at each layer boundary, and the JSON carries the per-layer metrics plus
// the tracing overhead. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// runConfig is what every workload receives.
type runConfig struct {
	seed     int64
	duration time.Duration
	trace    bool
	tmp      string // scratch directory inside the checkout, removed at exit
	spans    string // directory the traced run writes its spans to
	tiny     bool   // smoke-test sizes: seconds of work, not minutes
	out      io.Writer
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a workload's outcome. failures are correctness-check failures;
// attempted/failed count operations, where failed ones were refused, shed
// or errored.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	failures []string
	notes    []string
}

func newReport() *report { return &report{Metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

// check records a failed correctness check when ok is false; a failure
// repeated by later operations is recorded once.
func (r *report) check(ok bool, format string, args ...any) {
	if ok {
		return
	}
	msg := fmt.Sprintf(format, args...)
	for _, f := range r.failures {
		if f == msg {
			return
		}
	}
	r.failures = append(r.failures, msg)
}

// note adds a human-readable line printed above the JSON result.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// timing prints a set of operation times as percentiles with its count.
func (r *report) timing(what string, msSamples []float64) {
	r.note("%s: p10 %.4f  p50 %.4f  p90 %.4f  p99 %.4f ms  n=%d", what, percentile(msSamples, 0.1),
		median(msSamples), percentile(msSamples, 0.9), percentile(msSamples, 0.99), len(msSamples))
}

// endToEnd sets an untraced run's metrics: its operation times in ms, the
// heap bytes it allocated per operation, and the peak RSS so far. It is
// called when the timed loop ends, before the checks that follow it
// allocate memory of their own.
func (r *report) endToEnd(what string, msSamples []float64, setupS, allocPerOp float64) {
	r.timing(what, msSamples)
	r.set("setup_s", setupS, "s")
	r.set("p50_ms", median(msSamples), "ms")
	r.set("alloc_kb_per_op", allocPerOp/1024, "KB")
	r.set("peak_rss_mb", peakRSSMB(), "MB")
}

var workloads = map[string]func(runConfig) (*report, error){
	"routed-step": runRoutedStep,
	"repro":       runReproCold,
}

func main() {
	name := flag.String("workload", "", "workload to run: routed-step, repro")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 15, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds >= 1, --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	tmp, err := os.MkdirTemp(".bench_build", "tmp-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := runConfig{
		seed:     *seed,
		duration: time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		tmp:      tmp,
		spans:    filepath.Join(".bench_build", "spans"),
		out:      os.Stdout,
	}
	code := run(*name, fn, cfg)
	os.RemoveAll(tmp)
	os.Exit(code)
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// run executes one workload and prints its report; it returns the exit
// code. A run with any failed check prints no metrics and exits 1.
func run(name string, fn func(runConfig) (*report, error), cfg runConfig) int {
	rep, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		return 1
	}
	if cfg.trace {
		completeLayers(rep)
	}
	rep.Correct = len(rep.failures) == 0
	mode := "end-to-end"
	if cfg.trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(cfg.out, "perfbench %s seed=%d seconds=%.0f %s\n", name, cfg.seed, cfg.duration.Seconds(), mode)
	for _, n := range rep.notes {
		fmt.Fprintln(cfg.out, "  "+n)
	}
	for _, f := range rep.failures {
		fmt.Fprintln(cfg.out, "  CHECK FAILED: "+f)
	}
	if !rep.Correct {
		rep.Metrics = map[string]metric{}
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(cfg.out, "  %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(cfg.out, "  attempted=%d failed=%d correct=%v\n", rep.Attempted, rep.Failed, rep.Correct)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(cfg.out, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAllocBytes is the process's cumulative heap allocation in bytes.
func heapAllocBytes() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// nproc is the number of CPUs the runtime schedules on.
func nproc() int { return runtime.GOMAXPROCS(0) }

// Set-up repetitions per run: a serving set-up takes 0.1-0.25 s, a repro
// set-up under a millisecond.
const (
	servingSetupReps = 9
	reproSetupReps   = 51
)

// warmup is the untimed load a serving run offers before it measures.
const warmup = time.Second

// setupMedian runs setup n times, keeps the last environment, releases the
// others, and returns the median set-up time in seconds. Repeating set-up
// makes setup_s a median like every other reported time.
func setupMedian[E any](n int, setup func() (E, error), release func(E)) (E, float64, error) {
	var env E
	var times []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		e, err := setup()
		if err != nil {
			return env, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < n-1 {
			release(e)
		}
		env = e
	}
	return env, median(times), nil
}

var errNoWork = errors.New("no operation completed within the run")
