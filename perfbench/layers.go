package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"lrcrace/internal/dsm"
	"lrcrace/internal/gofront"
	"lrcrace/internal/race"
)

// tracedRun is one traced iteration: its sample and what the tracer saw.
type tracedRun struct {
	s sample
	t *tracer
}

// traced measures the per-layer metrics. Untraced and traced iterations
// alternate until --seconds have passed (at least one of each); counters,
// spans and replays come from the traced ones, GC figures and verify time
// from the untraced ones, and the ratio of their median wall times is the
// tracing overhead. Every iteration of either kind passes the gate, and a
// deterministic workload's traced fingerprint must equal its untraced one.
func (b *bench) traced() result {
	if !b.warmUp() {
		return result{Attempted: 1, Failed: 1}
	}
	deadline := time.Now().Add(time.Duration(b.seconds * float64(time.Second)))
	var plain []sample
	var runs []tracedRun
	for len(runs) == 0 || time.Now().Before(deadline) {
		s := b.w.run(b.seed, b.ref, nil, false)
		b.record(&s)
		plain = append(plain, s)

		// Only the first traced run captures messages for the replays.
		t := newTracer(len(runs) == 0)
		s = b.w.run(b.seed, b.ref, t, false)
		b.record(&s)
		runs = append(runs, tracedRun{s, t})
	}
	m := layerMetrics(plain, runs)
	m["harness.ops_failed_frac"] = metric{float64(b.failed) / float64(b.attempted), "ratio"}
	return result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}
}

// layerMetrics derives every per-layer metric. Seconds are thread-seconds:
// a layer's spans summed over every goroutine that ran them (8 application
// threads and 8 service loops on the DSM), per iteration, so with 2 cores
// they compare with cpu_s rather than wall_s. Percentiles pool the spans of
// every traced iteration; everything else is the median over iterations.
// A layer a workload never reaches reads 0.
func layerMetrics(plain []sample, runs []tracedRun) map[string]metric {
	m := map[string]metric{}
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	// traced is the median over traced iterations.
	traced := func(f func(r tracedRun) float64) float64 {
		var xs []float64
		for _, r := range runs {
			if r.s.err == nil {
				xs = append(xs, f(r))
			}
		}
		return median(xs)
	}
	untraced := func(f func(s sample) float64) float64 {
		var xs []float64
		for _, s := range plain {
			if s.err == nil {
				xs = append(xs, f(s))
			}
		}
		return median(xs)
	}
	pooled := func(q float64, f func(t *tracer) []float64) float64 {
		var xs []float64
		for _, r := range runs {
			xs = append(xs, f(r.t)...)
		}
		return quantile(xs, q)
	}
	procSum := func(f func(st dsm.Stats) int64) func(r tracedRun) float64 {
		return func(r tracedRun) float64 {
			var n int64
			for _, st := range r.s.out.procs {
				n += f(st)
			}
			return float64(n)
		}
	}
	secs := func(ns int64) float64 { return float64(ns) / 1e9 }
	sum := func(xs []int64) int64 {
		var n int64
		for _, x := range xs {
			n += x
		}
		return n
	}

	set("harness.verify_s", "s", untraced(func(s sample) float64 { return s.verify.Seconds() }))

	set("dsm.shared_accesses", "count", traced(procSum(func(st dsm.Stats) int64 { return st.SharedReads + st.SharedWrites })))
	set("dsm.app_thread_s", "s", traced(func(r tracedRun) float64 { return secs(sum(r.t.workerNS[:])) }))
	set("dsm.access_path_s", "s", traced(func(r tracedRun) float64 {
		return secs(sum(r.t.workerNS[:]) - sum(r.t.waitNS[:]))
	}))
	set("dsm.page_faults", "count", traced(procSum(func(st dsm.Stats) int64 { return st.ReadFaults + st.WriteFaults })))
	set("dsm.page_fault_us_p50", "us", pooled(0.5, func(t *tracer) []float64 { return t.faultUS }))
	set("dsm.page_fault_us_p99", "us", pooled(0.99, func(t *tracer) []float64 { return t.faultUS }))
	set("dsm.lock_acquires", "count", traced(procSum(func(st dsm.Stats) int64 { return st.LockAcquires })))
	set("dsm.lock_wait_us_p50", "us", pooled(0.5, func(t *tracer) []float64 { return t.lockUS }))
	set("dsm.lock_wait_us_p99", "us", pooled(0.99, func(t *tracer) []float64 { return t.lockUS }))
	set("dsm.barriers", "count", traced(func(r tracedRun) float64 {
		if len(r.s.out.procs) == 0 {
			return 0
		}
		return float64(r.s.out.procs[0].Barriers)
	}))
	set("dsm.barrier_us_p50", "us", pooled(0.5, func(t *tracer) []float64 { return t.barUS }))
	set("dsm.barrier_us_p99", "us", pooled(0.99, func(t *tracer) []float64 { return t.barUS }))
	set("dsm.messages_handled", "count", traced(func(r tracedRun) float64 { return float64(sum(r.t.net.handled[:])) }))
	set("dsm.service_busy_s", "s", traced(func(r tracedRun) float64 { return secs(sum(r.t.net.busyNS[:])) }))
	set("dsm.service_idle_s", "s", traced(func(r tracedRun) float64 { return secs(sum(r.t.net.idleNS[:])) }))

	set("simnet.messages", "count", traced(func(r tracedRun) float64 { return float64(r.s.out.net.TotalMessages()) }))
	set("simnet.bytes", "bytes", traced(func(r tracedRun) float64 { return float64(r.s.out.net.TotalBytes()) }))
	set("simnet.send_s", "s", traced(func(r tracedRun) float64 { return secs(r.t.net.sendNS) }))
	set("simnet.send_us_p99", "us", pooled(0.99, func(t *tracer) []float64 { return t.net.sendUS }))

	first := runs[0]
	codecNS, codecAllocs := replayCodec(first.t.net.wire)
	set("msg.codec_ns_per_msg", "ns", codecNS)
	set("msg.codec_allocs_per_msg", "count", codecAllocs)

	created := traced(procSum(func(st dsm.Stats) int64 { return st.BitmapsCreated }))
	sent := traced(procSum(func(st dsm.Stats) int64 { return st.BitmapsSent }))
	set("interval.closed", "count", traced(procSum(func(st dsm.Stats) int64 { return st.IntervalsCreated })))
	set("interval.bitmaps_created", "count", created)
	set("interval.bitmaps_sent_frac", "ratio", ratio(sent, created))

	det := func(f func(st race.Stats) int) float64 {
		return traced(func(r tracedRun) float64 { return float64(f(r.s.out.det)) })
	}
	compared := det(func(st race.Stats) int { return st.PairComparisons })
	overlapping := det(func(st race.Stats) int { return st.OverlappingPairs })
	set("race.pair_comparisons", "count", compared)
	set("race.concurrent_pairs", "count", det(func(st race.Stats) int { return st.ConcurrentPairs }))
	set("race.overlapping_pairs", "count", overlapping)
	set("race.useful_frac", "ratio", ratio(overlapping, compared))
	set("race.bitmaps_compared", "count", det(func(st race.Stats) int { return st.BitmapsCompared }))
	set("race.reports", "count", traced(func(r tracedRun) float64 { return float64(r.s.out.races) }))
	set("race.check_us_p50", "us", pooled(0.5, func(t *tracer) []float64 { return t.checkUS }))
	set("race.check_us_p99", "us", pooled(0.99, func(t *tracer) []float64 { return t.checkUS }))
	set("race.check_s", "s", traced(func(r tracedRun) float64 { return secs(r.t.checkNS) }))
	build := 0.0
	if first.s.out.dsm {
		build = replayBuild(first.t.net.releases, first.s.out.layout)
	}
	set("race.build_ns_per_epoch", "ns", build)

	ckpt := func(f func(st dsm.CheckpointStats) int64) float64 {
		return traced(func(r tracedRun) float64 { return float64(f(r.s.out.ckpt)) })
	}
	logical := ckpt(func(st dsm.CheckpointStats) int64 { return st.LogicalBytes })
	stored := ckpt(func(st dsm.CheckpointStats) int64 { return st.Bytes })
	set("castore.checkpoints", "count", ckpt(func(st dsm.CheckpointStats) int64 { return int64(st.Count) }))
	set("castore.encode_s", "s", ckpt(func(st dsm.CheckpointStats) int64 { return st.EncodeNS })/1e9)
	set("castore.logical_mb", "MiB", logical/mib)
	set("castore.stored_mb", "MiB", stored/mib)
	dedup := 0.0
	if logical > 0 {
		dedup = 1 - stored/logical
	}
	set("castore.dedup_frac", "ratio", dedup)

	gf := func(f func(st gofront.Stats) int) float64 {
		return traced(func(r tracedRun) float64 { return float64(f(r.s.out.gofront)) })
	}
	set("gofront.syncs", "count", gf(func(st gofront.Stats) int { return st.Syncs }))
	set("gofront.intervals", "count", gf(func(st gofront.Stats) int { return st.Intervals }))
	set("gofront.pairs_examined", "count", gf(func(st gofront.Stats) int { return st.PairsExamined }))
	set("gofront.bitmaps_compared", "count", gf(func(st gofront.Stats) int { return st.BitmapsCompared }))
	set("gofront.records_gced", "count", gf(func(st gofront.Stats) int { return st.RecordsGCed }))
	set("gofront.reports", "count", traced(func(r tracedRun) float64 { return float64(r.s.out.goRaces) }))
	set("gofront.check_s", "s", traced(func(r tracedRun) float64 { return secs(r.t.goCheckNS) }))

	set("telemetry.events", "count", traced(func(r tracedRun) float64 { return float64(r.t.events) }))
	tracedWall := traced(func(r tracedRun) float64 { return r.s.wall.Seconds() })
	plainWall := untraced(func(s sample) float64 { return s.wall.Seconds() })
	set("telemetry.overhead_frac", "ratio", ratio(tracedWall, plainWall)-1)

	set("gc.cycles", "count", untraced(func(s sample) float64 { return float64(s.gcCycles) }))
	set("gc.cpu_frac", "ratio", untraced(func(s sample) float64 { return ratio(s.gcCPU, s.cpu.Seconds()) }))
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeReference regenerates the committed reference: the fingerprint of
// one untraced run of each deterministic DSM workload, TSP's allowed
// racy-variable set, and kv-gofront's fingerprint for seeds 0 through
// refSeeds-1 (each cross-checked against hbdet). Regenerate only for a
// change that is meant to change the program's outputs.
func writeReference(path string, log io.Writer) error {
	ref := reference{}
	for _, w := range workloads {
		switch {
		case w.scheduled:
			// TSP's only intended race is on its tour bound.
			ref[w.name] = refEntry{AllowedRacyVars: []string{"minTour"}}
		case w.gofront:
			e := refEntry{Seeds: map[string]fingerprint{}}
			for seed := int64(0); seed < refSeeds; seed++ {
				s := w.runGo(seed, nil, true)
				if s.err != nil {
					return s.err
				}
				fp := w.project(s.fp)
				e.Seeds[strconv.FormatInt(seed, 10)] = fp
				if e.RacyVars == nil {
					e.RacyVars = fp.RacyVars
				} else if fmt.Sprint(e.RacyVars) != fmt.Sprint(fp.RacyVars) {
					return fmt.Errorf("kv-gofront: seed %d races on %v, seed 0 on %v", seed, fp.RacyVars, e.RacyVars)
				}
			}
			ref[w.name] = e
		default:
			s := w.runDSM(nil)
			if s.err != nil {
				return s.err
			}
			fp := w.project(s.fp)
			ref[w.name] = refEntry{Fingerprint: &fp}
		}
		fmt.Fprintf(log, "perfbench: reference for %s done\n", w.name)
	}
	b, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// refSeeds is how many kv-gofront seeds the reference pins exactly.
const refSeeds = 64
