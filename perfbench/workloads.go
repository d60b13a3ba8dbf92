package main

import (
	"fmt"
	"runtime"
	"time"

	"lrcrace/internal/apps"
	"lrcrace/internal/dsm"
	"lrcrace/internal/gofront"
	"lrcrace/internal/mem"
	"lrcrace/internal/race"
	"lrcrace/internal/simnet"
	"lrcrace/internal/telemetry"

	// Register the DSM applications and the gofront workloads.
	_ "lrcrace/internal/apps/kv"
	_ "lrcrace/internal/apps/sor"
	_ "lrcrace/internal/apps/tsp"
	_ "lrcrace/internal/apps/water"
)

// numProcs is the paper's configuration: 8 simulated processes (DSM
// workloads) or 8 clients (kv-gofront).
const numProcs = 8

// workload is one benchmark input. DSM workloads name an application and
// its scale; the gofront workload names a registered gofront workload.
type workload struct {
	name string

	app   string  // apps registry name, or gofront workload name
	scale float64 // apps.New / WorkloadConfig scale
	// msgDelay is the RealMsgDelay the harness gives this application by
	// default (TSP: 20µs); 0 for the others.
	msgDelay time.Duration
	gofront  bool
	// scheduled marks a workload whose outputs follow real scheduling, so
	// its runs need not repeat one another's fingerprint.
	scheduled bool
	// view, when set, keeps only the fingerprint fields the reference
	// pins; nil keeps them all.
	view func(full fingerprint) fingerprint
}

// The workloads and why each exists are described in README.md.
var workloads = []*workload{
	// SOR at the paper's 512×512 input: the access path and checkpoint
	// hashing, fully deterministic.
	{name: "sor-access", app: "SOR", scale: 28.4},
	// Water at 216 molecules × 5 steps: locks, the msg codec, the
	// barrier master's race check. Deterministic race set and count.
	{
		name: "water-check", app: "Water", scale: 3.375,
		view: func(f fingerprint) fingerprint {
			return fingerprint{Reports: f.Reports, RacyVars: f.RacyVars}
		},
	},
	// TSP with its real per-message delay: lock order, and so virtual
	// time and the report count, follow real arrival order.
	{
		name: "tsp-locks", app: "TSP", scale: 1, msgDelay: 20 * time.Microsecond, scheduled: true,
		view: func(f fingerprint) fingerprint { return fingerprint{RacyVars: f.RacyVars} },
	},
	// The gofront KV store: deterministic per seed.
	{name: "kv-gofront", app: "KV", scale: 100, gofront: true},
}

func (w *workload) project(fp fingerprint) fingerprint {
	if w.view == nil {
		return fp
	}
	return w.view(fp)
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// kvSkew is the hot-key probability of kv-gofront, the value the
// repository's KV Go benchmarks use.
const kvSkew = 0.5

// sample is one run's measurements. The timed region is System.Run plus
// app.Verify (DSM) or gofront.RunWorkload (kv-gofront).
type sample struct {
	wall, cpu, verify  time.Duration
	allocBytes, allocs uint64
	peakHeap           uint64
	accesses           int64
	gcCycles           uint64
	gcCPU              float64

	fp  fingerprint
	out runOutput
	err error // run, verify or gate failure
}

// runOutput is what the per-layer metrics read from a finished run,
// copied out so that no run's system stays alive into the next.
type runOutput struct {
	dsm    bool // a DSM run; the DSM fields below are zero otherwise
	procs  []dsm.Stats
	det    race.Stats
	net    simnet.Stats
	ckpt   dsm.CheckpointStats
	races  int
	layout mem.Layout

	gofront gofront.Stats // kv-gofront only
	goRaces int
}

// timedRegion measures fn with the runtime and CPU counters around it. A
// forced GC first gives every run the same starting heap.
func timedRegion(s *sample, fn func()) {
	runtime.GC()
	hs := startHeapSampler()
	r0, c0 := readRuntime(), cpuTime()
	start := time.Now()
	fn()
	s.wall = time.Since(start)
	c1, r1 := cpuTime(), readRuntime()
	s.peakHeap = hs.Stop()
	s.cpu = c1 - c0
	s.allocBytes = r1.allocBytes - r0.allocBytes
	s.allocs = r1.allocObjs - r0.allocObjs
	s.gcCycles = r1.gcCycles - r0.gcCycles
	s.gcCPU = r1.gcCPU - r0.gcCPU
}

// run executes one iteration of w and applies the correctness gate. With
// tr non-nil the run is traced: the transport is wrapped and a telemetry
// recorder observes every event. crossCheck adds kv-gofront's hbdet
// cross-check, outside the timed region.
func (w *workload) run(seed int64, ref reference, tr *tracer, crossCheck bool) sample {
	var s sample
	if w.gofront {
		s = w.runGo(seed, tr, crossCheck)
	} else {
		s = w.runDSM(tr)
	}
	if s.err == nil {
		s.fp = w.project(s.fp)
		if err := ref.check(w.name, seed, s.fp); err != nil {
			s.err = fmt.Errorf("%s: correctness gate: %w", w.name, err)
		}
	}
	return s
}

// newSystem builds and sets up the workload's DSM system. With tr non-nil
// the system runs over the tracer's transport and recorder.
func (w *workload) newSystem(tr *tracer) (apps.App, *dsm.System, error) {
	app, err := apps.New(w.app, w.scale)
	if err != nil {
		return nil, nil, err
	}
	cfg := dsm.Config{
		NumProcs:     numProcs,
		SharedSize:   app.SharedBytes(),
		Detect:       true,
		RealMsgDelay: w.msgDelay,
	}
	if tr != nil {
		cfg.Transport = tr.net
		cfg.Recorder = tr.rec
	}
	sys, err := dsm.New(cfg)
	if err == nil {
		err = app.Setup(sys)
	}
	return app, sys, err
}

// setUp performs one set-up whose product is discarded: apps.New (a config
// struct), dsm.New and app.Setup; or, for kv-gofront, the part of a
// gofront run that can be separated from RunWorkload, building the program
// (segment, layout, detector) that the KV workload builds first.
func (w *workload) setUp(seed int64) error {
	if w.gofront {
		gofront.New(gofront.Config{MaxGs: numProcs + 2, Seed: seed, Detect: true})
		return nil
	}
	_, _, err := w.newSystem(nil)
	return err
}

func (w *workload) runDSM(tr *tracer) sample {
	var s sample
	app, sys, err := w.newSystem(tr)
	if err != nil {
		s.err = fmt.Errorf("%s: set-up: %w", w.name, err)
		return s
	}
	worker := app.Worker
	if tr != nil {
		worker = tr.wrapWorker(app.Worker)
	}
	timedRegion(&s, func() {
		if s.err = sys.Run(worker); s.err != nil {
			return
		}
		v0 := time.Now()
		s.err = app.Verify(sys)
		s.verify = time.Since(v0)
	})
	if s.err != nil {
		s.err = fmt.Errorf("%s: %w", w.name, s.err)
		return s
	}
	races := sys.Races()
	det := sys.DetectorStats()
	net := sys.NetStats()
	s.out = runOutput{
		dsm:    true,
		det:    det,
		net:    net,
		ckpt:   sys.CheckpointStats(),
		races:  len(races),
		layout: sys.Layout(),
	}
	for _, p := range sys.Procs() {
		st := p.Stats()
		s.out.procs = append(s.out.procs, st)
		s.accesses += st.SharedReads + st.SharedWrites
	}
	s.fp = fingerprint{
		VirtualNS: sys.VirtualTime(),
		Reports:   len(races),
		RacyVars:  dsmRacyVars(sys, races),
		Detector:  &det,
		Messages:  wireCounts(net.Messages),
		Bytes:     wireCounts(net.Bytes),
	}
	return s
}

func (w *workload) runGo(seed int64, tr *tracer, crossCheck bool) sample {
	var s sample
	var rec *telemetry.Recorder
	if tr != nil {
		rec = tr.rec
	}
	var res *gofront.Result
	timedRegion(&s, func() {
		res, s.err = gofront.RunWorkload(w.app, gofront.WorkloadConfig{
			Clients:    numProcs,
			Scale:      w.scale,
			HotKeySkew: kvSkew,
			Racy:       true,
			Seed:       seed,
			Detect:     true,
			Recorder:   rec,
		})
	})
	if s.err == nil && res.Deadlocked {
		s.err = fmt.Errorf("gofront workload %s deadlocked", w.app)
	}
	if s.err != nil {
		s.err = fmt.Errorf("%s: %w", w.name, s.err)
		return s
	}
	v0 := time.Now()
	st := res.Stats
	s.out = runOutput{gofront: st, goRaces: len(res.Races)}
	s.accesses = int64(st.Loads + st.Stores)
	s.fp = fingerprint{
		VirtualNS: res.VirtualNS,
		Reports:   len(res.Races),
		RacyVars:  goRacyVars(res),
		RacyAddrs: addrList(res.RacyAddrs),
		GoFront:   &st,
	}
	s.verify = time.Since(v0)
	if crossCheck {
		s.err = crossCheckHB(res)
	}
	return s
}

// crossCheckHB replays a gofront run's linearized trace through the
// per-access reference detector (hbdet) and requires the same racy
// address set. It is slow, so it runs outside every timed region.
func crossCheckHB(res *gofront.Result) error {
	hb := gofront.RacyAddrsHB(res.Trace, res.NumGs)
	if got, want := fmt.Sprint(addrList(res.RacyAddrs)), fmt.Sprint(addrList(hb)); got != want {
		return fmt.Errorf("kv-gofront: interval detector racy addresses %s, hbdet %s", got, want)
	}
	return nil
}
