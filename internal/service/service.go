package service

import (
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"sync"
	"time"

	"lrcrace/internal/apps"
	"lrcrace/internal/gofront"
	"lrcrace/internal/harness"
	"lrcrace/internal/race"
	"lrcrace/internal/sweep"
	"lrcrace/internal/telemetry"
)

// RunRequest is what a client submits to open a session: the same axes a
// sweep cell pins (see sweep.Plan), as one concrete configuration. The
// zero values of the optional fields take the sweep's defaults (scale 1,
// 4 procs, single-writer protocol, detection on, checkpointing on).
type RunRequest struct {
	App         string  `json:"app"`
	Scale       float64 `json:"scale,omitempty"`
	Procs       int     `json:"procs,omitempty"`
	Protocol    string  `json:"protocol,omitempty"`
	Detect      *bool   `json:"detect,omitempty"`
	Sharded     bool    `json:"sharded,omitempty"`
	Checkpoint  *bool   `json:"checkpoint,omitempty"`
	CrashMode   string  `json:"crash_mode,omitempty"`
	CorruptMode string  `json:"corrupt_mode,omitempty"`
	Seed        int64   `json:"seed,omitempty"`
	// Frontend selects the execution engine: "" or "dsm" for the simulated
	// DSM, "go" for the gofront happens-before frontend, whose apps are
	// the gofront workloads and whose knobs are HotSkew and Racy.
	Frontend string           `json:"frontend,omitempty"`
	HotSkew  float64          `json:"hot_skew,omitempty"`
	Racy     bool             `json:"racy,omitempty"`
	Faults   *sweep.FaultAxis `json:"faults,omitempty"`
	// RealMsgDelayUS overrides the per-app real-latency coupling
	// (microseconds); 0 keeps the app default.
	RealMsgDelayUS int64 `json:"real_msg_delay_us,omitempty"`
}

// plan lifts the request into a one-cell sweep plan, which is where the
// grid's config-time rejection logic already lives.
func (r *RunRequest) plan() *sweep.Plan {
	p := &sweep.Plan{
		Apps:           []string{r.App},
		Seeds:          []int64{r.Seed},
		Faults:         r.Faults,
		RealMsgDelayUS: r.RealMsgDelayUS,
	}
	if r.Scale != 0 {
		p.Scales = []float64{r.Scale}
	}
	if r.Procs != 0 {
		p.Procs = []int{r.Procs}
	}
	if r.Protocol != "" {
		p.Protocols = []string{r.Protocol}
	}
	if r.Detect != nil {
		p.Detect = []bool{*r.Detect}
	}
	p.Sharded = []bool{r.Sharded}
	if r.Checkpoint != nil {
		p.Checkpoint = []bool{*r.Checkpoint}
	}
	if r.CrashMode != "" {
		p.CrashModes = []string{r.CrashMode}
	}
	if r.CorruptMode != "" {
		p.CorruptModes = []string{r.CorruptMode}
	}
	if r.Frontend != "" {
		p.Frontends = []string{r.Frontend}
	}
	if r.HotSkew != 0 {
		p.HotSkews = []float64{r.HotSkew}
	}
	if r.Racy {
		p.Racy = []bool{true}
	}
	return p
}

// Cell resolves the request to its fully determined grid point, rejecting
// configurations the DSM would refuse to build or that could never run
// (unknown app, sharded check without detection, crash modes on
// non-recoverable apps, corruption without a crash). This is the
// admission-time validation: a rejected request fails with a
// *RequestError before any System exists, never mid-run.
func (r *RunRequest) Cell() (sweep.Cell, harness.RunConfig, error) {
	if r.App == "" {
		return sweep.Cell{}, harness.RunConfig{}, &RequestError{Reason: "no application named"}
	}
	if !harness.KnownFrontend(r.Frontend) {
		return sweep.Cell{}, harness.RunConfig{},
			&RequestError{Reason: fmt.Sprintf("unknown frontend %q (have %v)", r.Frontend, harness.Frontends)}
	}
	if !knownApp(r.App) {
		return sweep.Cell{}, harness.RunConfig{},
			&RequestError{Reason: fmt.Sprintf("unknown application %q (have %v, chaos apps %v, and go-frontend workloads %v)",
				r.App, apps.Names(), harness.ChaosAppNames, gofront.Workloads())}
	}
	p := r.plan()
	cells, err := p.Expand()
	if err != nil {
		return sweep.Cell{}, harness.RunConfig{}, &RequestError{Reason: err.Error()}
	}
	if len(cells) != 1 {
		// Expand silently skips combinations the DSM rejects; name the
		// reason instead of running to failure.
		return sweep.Cell{}, harness.RunConfig{}, &RequestError{Reason: rejectReason(r)}
	}
	cfg, err := p.RunConfig(cells[0])
	if err != nil {
		return sweep.Cell{}, harness.RunConfig{}, &RequestError{Reason: err.Error()}
	}
	if err := harness.ValidateRunConfig(cfg); err != nil {
		return sweep.Cell{}, harness.RunConfig{}, &RequestError{Reason: err.Error()}
	}
	return cells[0], cfg, nil
}

func knownApp(name string) bool {
	if harness.IsChaosApp(name) || gofront.IsWorkload(name) {
		return true
	}
	for _, n := range apps.Names() {
		if n == name {
			return true
		}
	}
	return false
}

// rejectReason names why a one-cell plan expanded to zero cells, in the
// same terms Expand's skip conditions use.
func rejectReason(r *RunRequest) string {
	detect := r.Detect == nil || *r.Detect
	ckpt := r.Checkpoint == nil || *r.Checkpoint
	crash := r.CrashMode != "" && r.CrashMode != "none"
	corrupt := r.CorruptMode != "" && r.CorruptMode != "none"
	goFr := harness.IsGoFrontend(r.Frontend)
	switch {
	case goFr && !gofront.IsWorkload(r.App):
		return fmt.Sprintf("%q is not a go-frontend workload (have %v)", r.App, gofront.Workloads())
	case !goFr && gofront.IsWorkload(r.App):
		return fmt.Sprintf("%q is a go-frontend workload; set frontend to \"go\"", r.App)
	case goFr && r.Protocol != "" && r.Protocol != "sw":
		return "the go frontend has no coherence protocol"
	case goFr && r.Sharded:
		return "the go frontend checks at sync points, not sharded barriers"
	case goFr && !ckpt:
		return "the go frontend has no checkpoint layer to disable"
	case !goFr && (r.HotSkew != 0 || r.Racy):
		return "hot_skew and racy parameterize go-frontend workloads; set frontend to \"go\""
	case r.Sharded && !detect:
		return "sharded check requires detection"
	case crash && !harness.IsChaosApp(r.App):
		return fmt.Sprintf("crash mode %q needs a recoverable chaos app (%v); %s is a whole-program benchmark",
			r.CrashMode, harness.ChaosAppNames, r.App)
	case crash && !ckpt:
		return "crash modes require checkpointing (nothing to roll back to)"
	case crash && r.Procs == 1:
		return "crash modes need at least 2 processes (1 leaves no survivor)"
	case r.CrashMode == "double" && r.Procs > 0 && r.Procs < 3:
		return "crash mode double needs at least 3 processes for two distinct victims"
	case corrupt && !crash:
		return "corruption modes require a crash mode (nothing ever reads the corrupted checkpoints back)"
	}
	return "request maps to no runnable configuration"
}

// RequestError is an admission-time rejection: the request as submitted
// can never run, so the service refuses it up front (HTTP 400) instead of
// failing mid-run.
type RequestError struct{ Reason string }

func (e *RequestError) Error() string { return "service: invalid request: " + e.Reason }

// OverloadError is the typed admission rejection under load: the session
// queue is full. Clients should back off and retry (HTTP 503).
type OverloadError struct{ Queued, Limit int }

func (e *OverloadError) Error() string {
	return fmt.Sprintf("service: overloaded: %d sessions queued (limit %d)", e.Queued, e.Limit)
}

// ErrClosed rejects submissions to a service that is shutting down.
var ErrClosed = errors.New("service: shutting down")

// SessionState is a session's lifecycle position.
type SessionState string

// Session lifecycle states.
const (
	// StateQueued: admitted, waiting for a pool slot.
	StateQueued SessionState = "queued"
	// StateRunning: a worker is executing the session's System.
	StateRunning SessionState = "running"
	// StateDone: terminal; the session has a CellResult.
	StateDone SessionState = "done"
	// StateCanceled: the service shut down before the session ran.
	StateCanceled SessionState = "canceled"
)

// Session is one admitted run request and, eventually, its outcome.
type Session struct {
	id  string
	req RunRequest
	cfg harness.RunConfig
	ck  sweep.Cell

	done chan struct{} // closed on done/canceled

	mu     sync.Mutex
	state  SessionState
	rec    *telemetry.Recorder
	result *sweep.CellResult
	races  []race.Report
}

// ID returns the session's identifier (unique within the service).
func (s *Session) ID() string { return s.id }

// State returns the session's current lifecycle state.
func (s *Session) State() SessionState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Done is closed when the session reaches a terminal state.
func (s *Session) Done() <-chan struct{} { return s.done }

// Result returns the session's terminal result (nil before done).
func (s *Session) Result() *sweep.CellResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.result
}

// Races returns the session's full race reports (nil before done; the
// live stream carries them incrementally as store records).
func (s *Session) Races() []race.Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.races
}

// Info freezes the session for the JSON API.
func (s *Session) Info() SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SessionInfo{ID: s.id, State: s.state, Request: s.req, Result: s.result, Races: s.races}
}

// SessionInfo is the JSON view of one session.
type SessionInfo struct {
	ID      string            `json:"id"`
	State   SessionState      `json:"state"`
	Request RunRequest        `json:"request"`
	Result  *sweep.CellResult `json:"result,omitempty"`
	Races   []race.Report     `json:"races,omitempty"`
}

// Config tunes the service.
type Config struct {
	// MaxSessions is the concurrent-session pool size; 0 → 4.
	MaxSessions int
	// QueueDepth bounds admitted-but-waiting sessions; 0 → 64. A full
	// queue rejects submissions with *OverloadError.
	QueueDepth int
	// SessionTimeout is the per-session wall deadline; 0 → 2 minutes. A
	// session exceeding it is recorded with sweep.StatusTimeout and its
	// run goroutine abandoned (bounded, recorder-isolated leak — the same
	// containment the sweep's cell pool uses).
	SessionTimeout time.Duration
	// StoreCap bounds report-store retention; 0 → DefaultStoreCap.
	StoreCap int
	// SubscriberBuf bounds each subscriber's buffer; 0 → DefaultSubscriberBuf.
	SubscriberBuf int
	// TelemetryCap is each session recorder's per-ring event capacity;
	// 0 → 4096 (the sweep's default), negative → unbounded.
	TelemetryCap int
	// KeepDone bounds how many finished sessions stay queryable; 0 → 1024.
	// Older finished sessions are evicted (their store records remain).
	KeepDone int
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.SessionTimeout <= 0 {
		c.SessionTimeout = 2 * time.Minute
	}
	if c.TelemetryCap == 0 {
		c.TelemetryCap = 4096
	}
	if c.KeepDone <= 0 {
		c.KeepDone = 1024
	}
	return c
}

// Service is the long-running detection service: an admission-controlled
// session pool in front of the harness, feeding one shared report store.
// Create with New, submit with Submit, stop with Close.
type Service struct {
	cfg   Config
	store *Store
	queue chan *Session
	quit  chan struct{}
	wg    sync.WaitGroup

	mu       sync.Mutex
	closed   bool
	nextID   uint64
	sessions map[string]*Session
	order    []string // session IDs in admission order
}

// New builds the service and starts its worker pool.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	svc := &Service{
		cfg:      cfg,
		store:    NewStore(cfg.StoreCap),
		queue:    make(chan *Session, cfg.QueueDepth),
		quit:     make(chan struct{}),
		sessions: make(map[string]*Session),
	}
	for i := 0; i < cfg.MaxSessions; i++ {
		svc.wg.Add(1)
		go svc.worker()
	}
	return svc
}

// Store returns the service's report store (for subscriptions).
func (svc *Service) Store() *Store { return svc.store }

// Submit validates and admits one run request. It returns *RequestError
// for requests that can never run (map to HTTP 400), *OverloadError when
// the queue is full (503), and ErrClosed during shutdown (503).
func (svc *Service) Submit(req RunRequest) (*Session, error) {
	cell, cfg, err := req.Cell()
	if err != nil {
		return nil, err
	}
	svc.mu.Lock()
	if svc.closed {
		svc.mu.Unlock()
		return nil, ErrClosed
	}
	svc.nextID++
	sess := &Session{
		id:    fmt.Sprintf("s%d-%s", svc.nextID, cell.ID),
		req:   req,
		cfg:   cfg,
		ck:    cell,
		state: StateQueued,
		done:  make(chan struct{}),
	}
	select {
	case svc.queue <- sess:
	default:
		queued := len(svc.queue)
		svc.mu.Unlock()
		return nil, &OverloadError{Queued: queued, Limit: svc.cfg.QueueDepth}
	}
	svc.sessions[sess.id] = sess
	svc.order = append(svc.order, sess.id)
	svc.evictDoneLocked()
	svc.mu.Unlock()
	svc.store.Append(Record{Session: sess.id, Kind: KindSession, Detail: "admitted: " + cell.ID})
	return sess, nil
}

// evictDoneLocked drops the oldest finished sessions beyond KeepDone.
func (svc *Service) evictDoneLocked() {
	var doneIDs []string
	for _, id := range svc.order {
		if s := svc.sessions[id]; s != nil && (s.State() == StateDone || s.State() == StateCanceled) {
			doneIDs = append(doneIDs, id)
		}
	}
	for len(doneIDs) > svc.cfg.KeepDone {
		id := doneIDs[0]
		doneIDs = doneIDs[1:]
		delete(svc.sessions, id)
		for i, oid := range svc.order {
			if oid == id {
				svc.order = append(svc.order[:i], svc.order[i+1:]...)
				break
			}
		}
	}
}

// Session looks a session up by ID.
func (svc *Service) Session(id string) *Session {
	svc.mu.Lock()
	defer svc.mu.Unlock()
	return svc.sessions[id]
}

// Sessions returns retained sessions in admission order.
func (svc *Service) Sessions() []*Session {
	svc.mu.Lock()
	defer svc.mu.Unlock()
	out := make([]*Session, 0, len(svc.order))
	for _, id := range svc.order {
		if s := svc.sessions[id]; s != nil {
			out = append(out, s)
		}
	}
	return out
}

// Counts returns how many retained sessions are in each state.
func (svc *Service) Counts() map[SessionState]int {
	out := make(map[SessionState]int)
	for _, s := range svc.Sessions() {
		out[s.State()]++
	}
	return out
}

// Close stops admission, cancels queued sessions, and waits for the
// worker pool to finish its in-flight sessions.
func (svc *Service) Close() {
	svc.mu.Lock()
	if svc.closed {
		svc.mu.Unlock()
		svc.wg.Wait()
		return
	}
	svc.closed = true
	svc.mu.Unlock()
	close(svc.quit)
	// Drain the queue: whatever no worker picked up is canceled.
	for {
		select {
		case sess := <-svc.queue:
			sess.mu.Lock()
			sess.state = StateCanceled
			sess.mu.Unlock()
			close(sess.done)
			svc.store.Append(Record{Session: sess.id, Kind: KindSession,
				Detail: "canceled: service shutting down"})
		default:
			svc.wg.Wait()
			return
		}
	}
}

func (svc *Service) worker() {
	defer svc.wg.Done()
	for {
		select {
		case <-svc.quit:
			return
		case sess := <-svc.queue:
			svc.runSession(sess)
		}
	}
}

type sessionOutcome struct {
	res *harness.Result
	err error
}

// runSession executes one session the way the sweep pool runs a cell: its
// own System, its own scoped recorder, its own goroutine so a wedged run
// is abandoned at the deadline. The recorder's Observer streams detector
// output into the report store as it happens.
func (svc *Service) runSession(sess *Session) {
	cfg := sess.cfg
	rec := telemetry.New(telemetry.Config{
		Procs:      cfg.Procs,
		Cap:        svc.cfg.TelemetryCap,
		FlightSink: io.Discard,
		Observer: func(e telemetry.Event) {
			svc.observe(sess.id, e)
		},
		TripObserver: func(reason telemetry.TripReason, detail string) {
			svc.store.Append(Record{Session: sess.id, Kind: KindTrip,
				Detail: reason.String() + ": " + detail})
		},
	})
	cfg.Recorder = rec
	// Mirror the sweep pool: the session deadline doubles as the barrier
	// wall timeout unless the reliable sublayer (or a chaos app's tight
	// default) is the crash detector in charge.
	if cfg.BarrierWallTimeout == 0 && !cfg.Reliable && !harness.IsChaosApp(cfg.App) {
		cfg.BarrierWallTimeout = svc.cfg.SessionTimeout
	}

	sess.mu.Lock()
	sess.state = StateRunning
	sess.rec = rec
	sess.mu.Unlock()
	svc.store.Append(Record{Session: sess.id, Kind: KindSession, Detail: "started"})

	out := make(chan sessionOutcome, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				out <- sessionOutcome{err: fmt.Errorf("panic: %v\n%s", p, debug.Stack())}
			}
		}()
		res, err := harness.Run(cfg)
		out <- sessionOutcome{res: res, err: err}
	}()

	timer := time.NewTimer(svc.cfg.SessionTimeout)
	defer timer.Stop()
	var result *sweep.CellResult
	var races []race.Report
	select {
	case o := <-out:
		if o.err != nil {
			status := sweep.StatusFailed
			if len(o.err.Error()) > 6 && o.err.Error()[:6] == "panic:" {
				status = sweep.StatusPanic
			}
			result = &sweep.CellResult{ID: sess.ck.ID, Status: status, Error: o.err.Error(),
				Attempt: 1, Metrics: rec.Metrics().Snapshot().Canonical()}
		} else {
			races = o.res.Races
			result = &sweep.CellResult{
				ID:            sess.ck.ID,
				Status:        sweep.StatusOK,
				Attempt:       1,
				Races:         len(o.res.Races),
				DistinctRaces: len(race.DedupByAddr(o.res.Races)),
				VirtualNS:     o.res.VirtualNS,
				WallNS:        o.res.WallNS,
				Metrics:       rec.Metrics().Snapshot().Canonical(),
			}
		}
	case <-timer.C:
		// Abandon the wedged run goroutine; its System and recorder are
		// private to this session, so the leak is bounded and harmless.
		result = &sweep.CellResult{ID: sess.ck.ID, Status: sweep.StatusTimeout, Attempt: 1,
			Error:   fmt.Sprintf("session exceeded %v", svc.cfg.SessionTimeout),
			Metrics: rec.Metrics().Snapshot().Canonical()}
	}

	sess.mu.Lock()
	sess.state = StateDone
	sess.result = result
	sess.races = races
	sess.mu.Unlock()
	svc.store.Append(Record{Session: sess.id, Kind: KindSession,
		Detail: fmt.Sprintf("finished: %s (%d races)", result.Status, result.Races)})
	close(sess.done)
}

// observe routes one live telemetry event of a running session into the
// report store. Races, crash detections, and rollback milestones are the
// events a subscriber cares about; everything else stays in the session's
// recorder (rings, metrics, flight buffer).
func (svc *Service) observe(session string, e telemetry.Event) {
	switch e.Kind {
	case telemetry.KRaceFound:
		svc.store.Append(Record{Session: session, Kind: KindRace, VT: e.VT,
			Addr: uint64(e.A), Epoch: e.B, WriteWrite: e.C == 1})
	case telemetry.KCrashDetected:
		via := "barrier timeout"
		if e.B == 1 {
			via = "link death"
		}
		svc.store.Append(Record{Session: session, Kind: KindRecovery, VT: e.VT,
			Detail: fmt.Sprintf("crash detected: suspect p%d via %s", e.A, via)})
	case telemetry.KRecoveryStart:
		svc.store.Append(Record{Session: session, Kind: KindRecovery, VT: e.VT,
			Detail: fmt.Sprintf("rollback to epoch %d (victim p%d)", e.A, e.B)})
	case telemetry.KRecoveryDone:
		svc.store.Append(Record{Session: session, Kind: KindRecovery, VT: e.VT,
			Detail: fmt.Sprintf("recovered at epoch %d (%d virtual ns re-executed)", e.A, e.B)})
	}
}

// snapshots returns every retained session's metrics snapshot — running
// sessions live off their recorders, finished ones from their canonical
// results — keyed by session ID, for the /metrics surface.
func (svc *Service) snapshots() map[string]*telemetry.Snapshot {
	out := make(map[string]*telemetry.Snapshot)
	for _, s := range svc.Sessions() {
		s.mu.Lock()
		switch {
		case s.state == StateRunning && s.rec != nil:
			out[s.id] = s.rec.Metrics().Snapshot()
		case s.result != nil && s.result.Metrics != nil:
			out[s.id] = s.result.Metrics
		}
		s.mu.Unlock()
	}
	return out
}

// flightRecorder returns a session's recorder, or nil.
func (svc *Service) flightRecorder(id string) *telemetry.Recorder {
	s := svc.Session(id)
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rec
}
