// Command perfbench is the repository's host-cost benchmark: it runs one
// workload in this process for a fixed time, checks every run's outputs
// against a committed reference, and prints the host wall time, CPU time,
// allocations and set-up time it took to produce them (--trace 0), or the
// per-layer figures of a separate traced run (--trace 1). See README.md.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload sor-access --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	commit   string
	writeRef string
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	var o options
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	fl.StringVar(&o.workload, "workload", "", "workload name: sor-access, water-check, tsp-locks or kv-gofront")
	fl.Int64Var(&o.seed, "seed", 1, "workload seed (drives kv-gofront; the DSM apps' inputs depend only on scale)")
	fl.Float64Var(&o.seconds, "seconds", 10, "how long the timed runs last")
	fl.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	fl.StringVar(&o.commit, "commit", "unknown", "commit the checkout was made from, recorded with the result")
	fl.StringVar(&o.writeRef, "write-reference", "", "regenerate the reference fingerprints into this file and exit")
	if err := fl.Parse(args); err != nil {
		return o, err
	}
	if o.writeRef == "" && o.workload == "" {
		return o, errors.New("--workload is required")
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, not %d", o.trace)
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive, not %g", o.seconds)
	}
	return o, nil
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// environment records where a result was measured; it is printed on the
// line before the result.
type environment struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	SeedUsed   bool   `json:"seed_used"`
	Trace      int    `json:"trace"`
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Iterations int    `json:"iterations"`
	// OpsFailedFrac is the share of timed runs whose correctness gate
	// failed (failed / attempted).
	OpsFailedFrac float64 `json:"ops_failed_frac"`
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if o.writeRef != "" {
		if err := writeReference(o.writeRef, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	ref, err := loadReference()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	w, err := findWorkload(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	b := &bench{w: w, seed: o.seed, ref: ref, seconds: o.seconds, log: stderr}
	var res result
	if o.trace == 1 {
		res = b.traced()
	} else {
		res = b.timed()
	}
	env := environment{
		Workload:      w.name,
		Seed:          o.seed,
		SeedUsed:      w.gofront,
		Trace:         o.trace,
		Commit:        o.commit,
		GoVersion:     runtime.Version(),
		CPU:           cpuModel(),
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Iterations:    res.Attempted,
		OpsFailedFrac: float64(res.Failed) / float64(max(res.Attempted, 1)),
	}
	for _, e := range []any{map[string]environment{"environment": env}, res} {
		line, err := json.Marshal(e)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// bench runs one workload.
type bench struct {
	w       *workload
	seed    int64
	ref     reference
	seconds float64
	log     io.Writer // every run's figures and every failure

	attempted, failed int
	// want is the fingerprint every later run of a deterministic workload
	// must repeat: the warm-up run's, which the gate has already checked.
	want *fingerprint
}

// Minimum counts, whatever --seconds allows, and the set-up sampling.
const (
	minTimedRuns    = 3
	minSetupSamples = 15
	setupBatches    = 5
	setupBatchTime  = 10 * time.Millisecond
	// Set-up is timed for 1/setupShare of the measured time.
	setupShare = 8
)

// warmUp runs one untimed iteration: the first run in a process pays for
// lazy initialization and cold caches. Its fingerprint passes the gate
// and, for kv-gofront, the hbdet cross-check.
func (b *bench) warmUp() bool {
	s := b.w.run(b.seed, b.ref, nil, true)
	if s.err != nil {
		fmt.Fprintln(b.log, "perfbench: warm-up:", s.err)
		return false
	}
	if !b.w.scheduled {
		fp := s.fp
		b.want = &fp
	}
	return true
}

// record counts one timed or traced run against the gate.
func (b *bench) record(s *sample) {
	b.attempted++
	if s.err == nil && b.want != nil && s.fp.String() != b.want.String() {
		s.err = fmt.Errorf("%s: fingerprint differs from the warm-up run's:\n got  %s\n want %s", b.w.name, s.fp, b.want)
	}
	if s.err != nil {
		b.failed++
		fmt.Fprintln(b.log, "perfbench:", s.err)
	}
	fmt.Fprintf(b.log, "run %d: wall %v cpu %v allocs %d alloc %.1fMiB peak %.1fMiB gc %d\n",
		b.attempted, s.wall, s.cpu, s.allocs, float64(s.allocBytes)/mib, float64(s.peakHeap)/mib, s.gcCycles)
}

// setupSample returns the time of one set-up: the fastest, over
// setupBatches batches, of a batch's mean. One set-up takes half a
// microsecond or more, too short to time alone, so a batch repeats it for at least
// setupBatchTime and is timed as a whole. Noise from the rest of the
// machine only ever adds time, and the fastest batch is the one it hit
// least: on tsp-locks the median of a process's batches moved by up to
// 25% between processes, the fastest by 7%. The GC stays on: with it off,
// a batch's garbage is all fresh memory, the cost of faulting it in
// dominated, and kv-gofront's set-up median differed by 1.8x between two
// sets of runs.
func (b *bench) setupSample() (float64, error) {
	best := math.Inf(1)
	for range setupBatches {
		runtime.GC()
		n := 0
		var err error
		start := time.Now()
		for ; err == nil && (n < 4 || time.Since(start) < setupBatchTime); n++ {
			err = b.w.setUp(b.seed)
		}
		if err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		best = min(best, time.Since(start).Seconds()/float64(n))
	}
	return best, nil
}

const mib = 1 << 20

// timed measures the end-to-end metrics with tracing off.
func (b *bench) timed() result {
	if !b.warmUp() {
		return result{Attempted: 1, Failed: 1}
	}
	// Set-up samples are spread over the whole run, between timed runs,
	// so that set-up time and the timed runs see the same periods of
	// machine noise; setup_s is their median.
	var setups []float64
	var setupSpent time.Duration
	_, setupErr := b.setupSample() // warms up; not kept
	setUp := func() {
		t := time.Now()
		x, err := b.setupSample()
		setupSpent += time.Since(t)
		setups = append(setups, x)
		setupErr = err
	}
	start := time.Now()
	deadline := start.Add(time.Duration(b.seconds * float64(time.Second)))
	var samples []sample
	for len(samples) < minTimedRuns || time.Now().Before(deadline) {
		s := b.w.run(b.seed, b.ref, nil, false)
		b.record(&s)
		samples = append(samples, s)
		for setupErr == nil && setupSpent*setupShare < time.Since(start) {
			setUp()
		}
	}
	for setupErr == nil && len(setups) < minSetupSamples {
		setUp()
	}
	pick := func(f func(s sample) float64) float64 {
		var xs []float64
		for _, s := range samples {
			xs = append(xs, f(s))
		}
		return median(xs)
	}
	m := map[string]metric{
		"wall_s":         {pick(func(s sample) float64 { return s.wall.Seconds() }), "s"},
		"cpu_s":          {pick(func(s sample) float64 { return s.cpu.Seconds() }), "s"},
		"accesses_per_s": {pick(func(s sample) float64 { return float64(s.accesses) / s.wall.Seconds() }), "1/s"},
		"alloc_mb":       {pick(func(s sample) float64 { return float64(s.allocBytes) / mib }), "MiB"},
		"allocs":         {pick(func(s sample) float64 { return float64(s.allocs) }), "count"},
		"peak_heap_mb":   {pick(func(s sample) float64 { return float64(s.peakHeap) / mib }), "MiB"},
	}
	if setupErr != nil {
		fmt.Fprintln(b.log, "perfbench:", setupErr)
		b.failed++
	} else {
		m["setup_s"] = metric{median(setups), "s"}
	}
	return result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}
}
