// Command perfbench is the repository's benchmark: one program that
// runs a named workload for a fixed time, checks every output it
// produced, and prints one JSON line with the run's metrics.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload tune-cold --seed 1 --seconds 25 --trace 0
//
// Workloads: tune-cold (library searches), serve-mixed (an in-process
// tuning service under two closed-loop HTTP clients) and store-mixed
// (the tuning database under a read/write/scan/reopen mix). With
// --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// records spans around each layer's calls and reports the per-layer
// metrics instead (see README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is what a run prints as its last line.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

// MarshalJSON keeps the metrics in the order they were added.
func (r result) MarshalJSON() ([]byte, error) {
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct":%t,"attempted":%d,"failed":%d,"metrics":{`, r.correct, r.attempted, r.failed)
	for i, m := range r.metrics {
		if i > 0 {
			b.WriteByte(',')
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		name, _ := json.Marshal(m.name)
		unit, _ := json.Marshal(m.unit)
		fmt.Fprintf(&b, `%s:{"value":%s,"unit":%s}`, name, strconv.FormatFloat(m.value, 'g', -1, 64), unit)
	}
	b.WriteString("}}")
	return []byte(b.String()), nil
}

// run carries the command-line settings shared by every workload.
type run struct {
	seed     int64
	seconds  float64
	tmp      string   // this run's private scratch directory
	procs    int      // nproc: the bound on clients, workers and GOMAXPROCS
	tr       *tracer  // set in traced runs
	problems []string // failed checks
}

// fail records a failed check.
func (r *run) fail(format string, args ...interface{}) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// deadline is when the timed phase ends.
func (r *run) deadline(start time.Time) time.Time {
	return start.Add(time.Duration(r.seconds * float64(time.Second)))
}

// workload is one benchmark workload: its untraced run, and the traced
// run of its path for the given seconds (at least one round, or for
// store-mixed one epoch), adding per-layer metrics to the result.
type workload struct {
	name   string
	run    func(*run) (*result, error)
	layers func(r *run, res *result, seconds float64) error
}

var workloads = []workload{
	{"tune-cold", tuneCold, tuneLayerRun},
	{"serve-mixed", serveMixed, serveLayerRun},
	{"store-mixed", storeMixed, storeLayerRun},
}

// traced runs the workload's own path traced for the run's seconds,
// then the shortest run of each other path, so that every traced run
// reports every per-layer metric.
func traced(r *run, own workload) (*result, error) {
	res := &result{}
	if err := own.layers(r, res, r.seconds); err != nil {
		return nil, err
	}
	for _, w := range workloads {
		if w.name != own.name {
			if err := w.layers(r, res, 0); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	name := flag.String("workload", "", "tune-cold, serve-mixed or store-mixed")
	seed := flag.Int64("seed", 1, "workload seed: every input is generated from it")
	seconds := flag.Float64("seconds", 25, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	tmpRoot := flag.String("tmp", os.TempDir(), "directory for the run's scratch directory (removed at exit)")
	traceFile := flag.String("trace-file", "", "with --trace 1, write the spans here as Chrome trace-event JSON")
	flag.Parse()

	var w workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w.run == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (valid: serve-mixed, store-mixed, tune-cold)\n", *name)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	procs := runtime.NumCPU()
	if runtime.GOMAXPROCS(0) > procs {
		runtime.GOMAXPROCS(procs)
	}
	if err := os.MkdirAll(*tmpRoot, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(*tmpRoot, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	r := &run{seed: *seed, seconds: *seconds, tmp: tmp, procs: procs}
	var res *result
	if *trace == 1 {
		r.tr = newTracer()
		res, err = traced(r, w)
	} else {
		res, err = w.run(r)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if r.tr != nil && *traceFile != "" {
		if err := r.tr.writeChrome(*traceFile); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
			return 1
		}
	}
	res.correct = len(r.problems) == 0
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.correct {
		return 1
	}
	return 0
}

// addCommon appends the metrics every workload reports with --trace 0.
func addCommon(res *result, setups []time.Duration) {
	res.add("setup_s", median(durations(setups))/1e3, "s")
	res.add("peak_rss_mb", peakRSSMB(), "MB")
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// allocCounter reads the cumulative heap-allocation count without
// stopping the world. It counts tiny allocations by the 16-byte block
// they are packed into, as runtime/metrics does. Not safe for
// concurrent use.
type allocCounter struct{ s []metrics.Sample }

func newAllocCounter() *allocCounter {
	return &allocCounter{s: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}}
}

func (a *allocCounter) read() uint64 {
	metrics.Read(a.s)
	return a.s[0].Value.Uint64()
}

// durations converts to milliseconds.
func durations(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}

// quantile is the q-quantile with linear interpolation between
// closest ranks; NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
