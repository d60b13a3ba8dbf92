package main

import (
	"sync"
	"time"

	"lrcrace/internal/dsm"
	"lrcrace/internal/interval"
	"lrcrace/internal/mem"
	"lrcrace/internal/msg"
	"lrcrace/internal/race"
	"lrcrace/internal/simnet"
	"lrcrace/internal/telemetry"
)

// maxSlots bounds the per-process (DSM) or per-goroutine (gofront) state
// the tracer keeps; gofront runs numProcs clients plus a janitor and root.
const maxSlots = numProcs + 2

// tracer records one traced run from outside the program: a transport
// wrapper times every send and every service-loop turn, and a telemetry
// Observer turns event wall stamps into spans. Per-process span state is
// touched under mu, since the observer runs on the emitting goroutine.
type tracer struct {
	rec *telemetry.Recorder
	net *tracedNet

	mu     sync.Mutex
	events int64

	inWorker   [maxSlots]bool
	workerFrom [maxSlots]time.Time
	workerNS   [maxSlots]int64
	// waitNS is the wall time each application thread spent, inside the
	// worker body, waiting on faults, locks and barriers or encoding
	// checkpoints: the part of its wall time that is not the access path.
	waitNS [maxSlots]int64

	faultFrom, lockFrom, barFrom, ckptFrom, closeFrom [maxSlots]time.Time

	faultUS, lockUS, barUS, checkUS []float64
	// checkNS is the master's check time: last arrival → BarrierRelease,
	// plus BarrierRelease → RaceCheck when there is a bitmap round.
	checkNS int64

	arriveMax map[int64]time.Time // epoch → last BarrierArrive stamp
	released  time.Time           // latest BarrierRelease stamp

	goCheckNS int64
}

func newTracer(capture bool) *tracer {
	t := &tracer{arriveMax: make(map[int64]time.Time)}
	t.net = newTracedNet(capture)
	t.rec = telemetry.New(telemetry.Config{
		Procs:    maxSlots,
		Cap:      64, // spans come from the observer; the rings are not read
		Observer: t.observe,
	})
	return t
}

// wrapWorker brackets each application thread's body, so the access path
// can be measured as its wall time minus its waits.
func (t *tracer) wrapWorker(body func(*dsm.Proc)) func(*dsm.Proc) {
	return func(p *dsm.Proc) {
		id := p.ID()
		t.mu.Lock()
		t.inWorker[id] = true
		t.workerFrom[id] = time.Now()
		t.mu.Unlock()
		body(p)
		t.mu.Lock()
		t.inWorker[id] = false
		t.workerNS[id] += time.Since(t.workerFrom[id]).Nanoseconds()
		t.mu.Unlock()
	}
}

// observe is the telemetry Observer. Span pairs are emitted on one
// goroutine each: PageFault→PageFetch, LockRequest→LockAcquired,
// BarrierArrive→BarrierDepart→Checkpoint on the application thread;
// IntervalClose→GoCheck in gofront's detector; the master's
// BarrierRelease and RaceCheck on its service thread.
func (t *tracer) observe(e telemetry.Event) {
	now := time.Now()
	p := int(e.Proc)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events++
	if p < 0 || p >= maxSlots {
		return
	}
	// endWait closes a span opened at *from on p's application thread.
	endWait := func(from *time.Time, us *[]float64) {
		if from.IsZero() {
			return
		}
		d := now.Sub(*from)
		if us != nil {
			*us = append(*us, float64(d.Nanoseconds())/1e3)
		}
		if t.inWorker[p] {
			t.waitNS[p] += d.Nanoseconds()
		}
		*from = time.Time{}
	}
	switch e.Kind {
	case telemetry.KPageFault:
		// A local protection fault emits no PageFetch; the next fault
		// restarts the span, so only remote fetches are measured.
		t.faultFrom[p] = now
	case telemetry.KPageFetch:
		endWait(&t.faultFrom[p], &t.faultUS)
	case telemetry.KLockRequest:
		t.lockFrom[p] = now
	case telemetry.KLockAcquired:
		endWait(&t.lockFrom[p], &t.lockUS)
	case telemetry.KBarrierArrive:
		t.barFrom[p] = now
		if last, ok := t.arriveMax[e.A]; !ok || now.After(last) {
			t.arriveMax[e.A] = now
		}
	case telemetry.KBarrierDepart:
		endWait(&t.barFrom[p], &t.barUS)
		t.ckptFrom[p] = now
	case telemetry.KCheckpoint:
		endWait(&t.ckptFrom[p], nil)
	case telemetry.KBarrierRelease:
		if last, ok := t.arriveMax[e.A]; ok {
			t.checkUS = append(t.checkUS, float64(now.Sub(last).Nanoseconds())/1e3)
			t.checkNS += now.Sub(last).Nanoseconds()
			delete(t.arriveMax, e.A)
		}
		t.released = now
	case telemetry.KRaceCheck:
		if !t.released.IsZero() {
			t.checkNS += now.Sub(t.released).Nanoseconds()
		}
	case telemetry.KIntervalClose:
		t.closeFrom[p] = now
	case telemetry.KGoCheck:
		if !t.closeFrom[p].IsZero() {
			t.goCheckNS += now.Sub(t.closeFrom[p]).Nanoseconds()
			t.closeFrom[p] = time.Time{}
		}
	}
}

// tracedNet wraps the simulated network. Send is timed and, when
// capturing, every message's wire bytes are kept for the codec replay and
// the master's BarrierRelease messages for the check-list build replay.
// Each service loop is the only caller of Recv for its process, so the
// per-process fields need no lock.
type tracedNet struct {
	nw      *simnet.Network
	capture bool

	mu       sync.Mutex
	sendNS   int64
	sendUS   []float64
	wire     [][]byte
	releases [][]byte

	lastRecv [numProcs]time.Time
	busyNS   [numProcs]int64
	idleNS   [numProcs]int64
	handled  [numProcs]int64
}

func newTracedNet(capture bool) *tracedNet {
	return &tracedNet{nw: simnet.New(numProcs), capture: capture}
}

func (n *tracedNet) Send(from, to int, m msg.Message, vtime int64) int {
	var wire []byte
	if n.capture {
		wire = msg.Marshal(m)
	}
	t0 := time.Now()
	size := n.nw.Send(from, to, m, vtime)
	d := time.Since(t0)
	n.mu.Lock()
	n.sendNS += d.Nanoseconds()
	n.sendUS = append(n.sendUS, float64(d.Nanoseconds())/1e3)
	if wire != nil {
		n.wire = append(n.wire, wire)
		if m.Type() == msg.TBarrierRelease && to == 0 {
			n.releases = append(n.releases, wire)
		}
	}
	n.mu.Unlock()
	return size
}

// Recv splits each service loop's time into idle (blocked in Recv) and
// busy (from Recv returning to the next Recv, which includes the
// RealMsgDelay sleep and the handler, sends included).
func (n *tracedNet) Recv(proc int) (simnet.Delivery, bool) {
	t0 := time.Now()
	if last := n.lastRecv[proc]; !last.IsZero() {
		n.busyNS[proc] += t0.Sub(last).Nanoseconds()
	}
	d, ok := n.nw.Recv(proc)
	t1 := time.Now()
	n.idleNS[proc] += t1.Sub(t0).Nanoseconds()
	n.lastRecv[proc] = t1
	if ok {
		n.handled[proc]++
	}
	return d, ok
}

func (n *tracedNet) Close()              { n.nw.Close() }
func (n *tracedNet) Stats() simnet.Stats { return n.nw.Stats() }

// replayMinNS is how long each replay repeats its input, so its per-item
// figure averages over enough repetitions to be steady.
const replayMinNS = int64(200 * time.Millisecond)

// replayCodec round-trips every captured message through msg.Unmarshal and
// msg.Marshal — the work simnet does per send — and returns the mean
// nanoseconds and heap allocations per message.
func replayCodec(wire [][]byte) (nsPerMsg, allocsPerMsg float64) {
	if len(wire) == 0 {
		return 0, 0
	}
	var n int64
	a0 := readRuntime().allocObjs
	t0 := time.Now()
	for time.Since(t0).Nanoseconds() < replayMinNS {
		for _, b := range wire {
			m, err := msg.Unmarshal(b)
			if err != nil {
				panic("captured message does not decode: " + err.Error())
			}
			_ = msg.Marshal(m)
		}
		n += int64(len(wire))
	}
	el := time.Since(t0)
	a1 := readRuntime().allocObjs
	return float64(el.Nanoseconds()) / float64(n), float64(a1-a0) / float64(n)
}

// replayBuild rebuilds each captured epoch's check list with
// race.Detector.BuildCheckList on a fresh detector and returns the mean
// nanoseconds per epoch.
func replayBuild(releases [][]byte, layout mem.Layout) float64 {
	var epochs [][]*interval.Record
	for _, b := range releases {
		m, err := msg.Unmarshal(b)
		if err != nil {
			panic("captured release does not decode: " + err.Error())
		}
		epochs = append(epochs, m.(*msg.BarrierRelease).Intervals)
	}
	if len(epochs) == 0 {
		return 0
	}
	var n int64
	var busy time.Duration
	for start := time.Now(); time.Since(start).Nanoseconds() < replayMinNS; {
		for _, recs := range epochs {
			d := race.NewDetector(layout, race.Options{NumPages: layout.NumPages})
			t0 := time.Now()
			_ = d.BuildCheckList(recs)
			busy += time.Since(t0)
		}
		n += int64(len(epochs))
	}
	return float64(busy.Nanoseconds()) / float64(n)
}
