// Package service turns the one-shot detector into a long-running,
// single-node, in-memory detection service: clients open sessions over
// HTTP, each session runs one DSM System (with its own handle-scoped
// telemetry recorder and always-on checkpoints) under admission control, and
// everything the detector reports — data races, crash recoveries,
// flight-recorder trips, session lifecycle — lands in an append-only
// report store that clients tail live with `since=<seq>` long-polls or
// SSE streams. The paper's detection is online ("races are reported
// immediately when they occur" at barrier time); this package makes the
// *consumption* online too, in the decoupled-monitoring spirit of Ronsse
// & De Bosschere: the monitored execution never waits for a subscriber.
// See docs/SERVICE.md.
package service

import "sync"

// RecordKind classifies one report-store record.
type RecordKind string

// Report-store record kinds.
const (
	// KindRace is one dynamic data-race report, appended the moment the
	// detector finds it at barrier time (telemetry KRaceFound).
	KindRace RecordKind = "race"
	// KindRecovery is a crash-tolerance event: a peer declared dead, a
	// coordinated rollback started or finished.
	KindRecovery RecordKind = "recovery"
	// KindTrip is a flight-recorder trip (link death, barrier timeout,
	// panic, checkpoint verification failure).
	KindTrip RecordKind = "trip"
	// KindSession marks session lifecycle: admitted, started, finished
	// (the Detail field says which, and with what terminal status).
	KindSession RecordKind = "session"
	// KindTruncated is synthesized by a stream when retention dropped
	// records between the subscriber's cursor and the oldest retained
	// record; Detail carries how many were lost.
	KindTruncated RecordKind = "truncated"
)

// Record is one line of the append-only report store. Seq is assigned by
// the store, monotonically across all sessions; per-session views are
// subsequences of the merged view, so one cursor works for both.
type Record struct {
	Seq     uint64     `json:"seq"`
	Session string     `json:"session"`
	Kind    RecordKind `json:"kind"`
	// VT is the virtual (costmodel) timestamp of the underlying protocol
	// event, when there is one.
	VT int64 `json:"vt,omitempty"`
	// Race fields (KindRace): the racing word's byte address, the barrier
	// epoch that exposed it, and whether both endpoints were writes.
	Addr       uint64 `json:"addr,omitempty"`
	Epoch      int64  `json:"epoch,omitempty"`
	WriteWrite bool   `json:"write_write,omitempty"`
	// Detail is the human-readable line for non-race kinds.
	Detail string `json:"detail,omitempty"`
}

// Store is the bounded append-only report log: records get monotonic
// sequence numbers starting at 1, retention keeps the most recent cap
// records (older ones are dropped, counted), and subscribers are notified
// through bounded per-subscriber buffers with drop-oldest semantics — a
// slow reader can never block an appender, only lose its place (which it
// recovers by replaying from its cursor; see Subscriber).
type Store struct {
	mu      sync.Mutex
	cap     int
	recs    []Record // recs[0].Seq == first; contiguous
	first   uint64   // seq of recs[0]; 1 when nothing dropped yet
	next    uint64   // next seq to assign
	dropped uint64   // records lost to retention
	subs    map[*Subscriber]struct{}
}

// DefaultStoreCap is the default retention bound, in records.
const DefaultStoreCap = 65536

// NewStore builds a store retaining at most cap records (0 →
// DefaultStoreCap).
func NewStore(cap int) *Store {
	if cap <= 0 {
		cap = DefaultStoreCap
	}
	return &Store{cap: cap, first: 1, next: 1, subs: make(map[*Subscriber]struct{})}
}

// Append assigns the next sequence number to r, retains it, and notifies
// matching subscribers. It returns the stored record.
func (s *Store) Append(r Record) Record {
	s.mu.Lock()
	r.Seq = s.next
	s.next++
	s.recs = append(s.recs, r)
	if len(s.recs) > s.cap {
		n := len(s.recs) - s.cap
		s.recs = s.recs[n:]
		s.first += uint64(n)
		s.dropped += uint64(n)
	}
	for sub := range s.subs {
		if sub.session == "" || sub.session == r.Session {
			sub.push(r)
		}
	}
	s.mu.Unlock()
	return r
}

// Since returns retained records with Seq > since, filtered to one
// session when session is non-empty, at most max of them (0 → no limit).
// lost is how many matching-window records retention already dropped
// (since < first-1 means the caller's cursor points into the dropped
// range); next is the store's current tail cursor — passing it back as
// since resumes exactly after the returned batch only when the batch was
// not truncated by max.
func (s *Store) Since(since uint64, session string, max int) (recs []Record, lost uint64, next uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if since+1 < s.first {
		lost = s.first - since - 1
	}
	for _, r := range s.recs {
		if r.Seq <= since {
			continue
		}
		if session != "" && r.Session != session {
			continue
		}
		recs = append(recs, r)
		if max > 0 && len(recs) == max {
			break
		}
	}
	next = since
	if n := len(recs); n > 0 {
		next = recs[n-1].Seq
	} else if s.next > 1 {
		next = s.next - 1
	}
	return recs, lost, next
}

// Len returns how many records the store currently retains.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// Appended returns how many records have ever been appended.
func (s *Store) Appended() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.next - 1
}

// Dropped returns how many records retention has discarded.
func (s *Store) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Subscribers returns how many subscribers are attached.
func (s *Store) Subscribers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs)
}

// DefaultSubscriberBuf is the default per-subscriber buffer, in records.
const DefaultSubscriberBuf = 256

// Subscriber is one live tail of the store: a bounded buffer of records
// plus a gap flag. When the buffer overflows, the store drops the
// subscriber's oldest buffered record (never blocking the appender),
// counts the drop, and raises the gap flag; the reader heals the gap by
// replaying from its cursor with Since, which preserves exactly-once
// in-order delivery as long as retention still holds the records (and
// reports the loss explicitly when it does not).
type Subscriber struct {
	store   *Store
	session string // "" subscribes to the merged view
	ch      chan Record

	mu      sync.Mutex
	gap     bool
	dropped uint64
	closed  bool
}

// Subscribe attaches a subscriber for one session ("" for the merged
// view) with a buffer of buf records (0 → DefaultSubscriberBuf). Close it
// when done.
func (s *Store) Subscribe(session string, buf int) *Subscriber {
	if buf <= 0 {
		buf = DefaultSubscriberBuf
	}
	sub := &Subscriber{store: s, session: session, ch: make(chan Record, buf)}
	s.mu.Lock()
	s.subs[sub] = struct{}{}
	s.mu.Unlock()
	return sub
}

// push delivers r without ever blocking: on a full buffer it evicts the
// oldest buffered record to make room (drop-oldest) and marks the gap.
// Called with the store lock held, so pushes are ordered; the reader may
// race a drain against the eviction, in which case the send can still
// fail — the gap flag covers that record too.
func (sub *Subscriber) push(r Record) {
	select {
	case sub.ch <- r:
		return
	default:
	}
	sub.mu.Lock()
	sub.gap = true
	sub.dropped++
	sub.mu.Unlock()
	select {
	case <-sub.ch:
	default:
	}
	select {
	case sub.ch <- r:
	default:
	}
}

// C is the subscriber's record channel. After a drop the channel's
// contents have a hole; callers must check TakeGap before trusting
// continuity and replay via the store when it reports true.
func (sub *Subscriber) C() <-chan Record { return sub.ch }

// TakeGap reports and clears the gap flag: true means at least one record
// was dropped from the buffer since the last call, and the reader should
// re-sync from the store with Since(cursor).
func (sub *Subscriber) TakeGap() bool {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	g := sub.gap
	sub.gap = false
	return g
}

// DroppedRecords returns how many records this subscriber's buffer has
// evicted or refused.
func (sub *Subscriber) DroppedRecords() uint64 {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	return sub.dropped
}

// Close detaches the subscriber from the store. Safe to call twice.
func (sub *Subscriber) Close() {
	sub.store.mu.Lock()
	delete(sub.store.subs, sub)
	sub.store.mu.Unlock()
	sub.mu.Lock()
	sub.closed = true
	sub.mu.Unlock()
}
