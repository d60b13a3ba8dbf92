// Package interval implements LRC interval records and the bookkeeping
// around them: write notices, the read notices this paper adds, per-interval
// word-access bitmaps, and the per-process log of known intervals with the
// delta computation used to piggyback consistency information on
// synchronization messages.
package interval

import (
	"slices"
	"sort"

	"lrcrace/internal/mem"
	"lrcrace/internal/vc"
)

// Record describes one interval: who created it, its version vector, the
// barrier epoch it belongs to, and the pages it wrote (write notices) and —
// the modification this system makes to CVM — the pages it read (read
// notices). Interval structures "contain version vectors that identify the
// logical time associated with the interval, and permit checks for
// concurrency".
type Record struct {
	ID    vc.IntervalID
	VC    vc.VC
	Epoch int32

	// WriteNotices and ReadNotices are sorted page lists.
	WriteNotices []mem.PageID
	ReadNotices  []mem.PageID
}

// Clone returns a deep copy of r.
func (r *Record) Clone() *Record {
	c := &Record{ID: r.ID, VC: r.VC.Copy(), Epoch: r.Epoch}
	c.WriteNotices = append([]mem.PageID(nil), r.WriteNotices...)
	c.ReadNotices = append([]mem.PageID(nil), r.ReadNotices...)
	return c
}

// Wrote reports whether page p appears in the write notices.
func (r *Record) Wrote(p mem.PageID) bool { return containsPage(r.WriteNotices, p) }

// Read reports whether page p appears in the read notices.
func (r *Record) Read(p mem.PageID) bool { return containsPage(r.ReadNotices, p) }

func containsPage(s []mem.PageID, p mem.PageID) bool {
	_, ok := slices.BinarySearch(s, p)
	return ok
}

// SortPages sorts a page list in place (notices are kept sorted so that
// membership tests and overlap scans are cheap).
func SortPages(s []mem.PageID) { slices.Sort(s) }

// OverlapPages appends to dst every page that appears in both sorted lists
// and returns the result. This is the page-granularity pre-filter: only
// pages accessed by both intervals of a concurrent pair can carry a race,
// and only those proceed to bitmap comparison.
func OverlapPages(a, b []mem.PageID, dst []mem.PageID) []mem.PageID {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// Builder accumulates the access footprint of the process's current
// interval: which pages were read/written, and per-page word bitmaps. The
// bitmaps sit in tables indexed by page, so noting an access is a slice
// index; Finish walks only the pages the interval touched and recycles
// their bitmaps for the next interval.
type Builder struct {
	layout      mem.Layout
	read, write footprint
	spare       []mem.Bitmap // cleared bitmaps awaiting reuse
}

// footprint is one access direction of the open interval.
type footprint struct {
	bits  []mem.Bitmap // indexed by page; nil = untouched this interval
	pages []mem.PageID // touched pages, in first-touch order
}

// NewBuilder returns a Builder for the given segment layout.
func NewBuilder(l mem.Layout) *Builder {
	return &Builder{
		layout: l,
		read:   footprint{bits: make([]mem.Bitmap, l.NumPages)},
		write:  footprint{bits: make([]mem.Bitmap, l.NumPages)},
	}
}

// NoteRead records a read of the word at a.
func (b *Builder) NoteRead(a mem.Addr) {
	p := b.layout.Page(a)
	bm := b.read.bits[p]
	if bm == nil {
		bm = b.touch(&b.read, p)
	}
	bm.Set(b.layout.WordInPage(a))
}

// NoteWrite records a write of the word at a.
func (b *Builder) NoteWrite(a mem.Addr) {
	p := b.layout.Page(a)
	bm := b.write.bits[p]
	if bm == nil {
		bm = b.touch(&b.write, p)
	}
	bm.Set(b.layout.WordInPage(a))
}

// touch gives page p its first bitmap of the interval in f.
func (b *Builder) touch(f *footprint, p mem.PageID) mem.Bitmap {
	if len(b.spare) == 0 {
		b.spare = append(b.spare, mem.NewBitmap(b.layout.WordsPerPage()))
	}
	bm := b.spare[len(b.spare)-1]
	b.spare = b.spare[:len(b.spare)-1]
	f.bits[p] = bm
	f.pages = append(f.pages, p)
	return bm
}

// Empty reports whether no accesses have been recorded.
func (b *Builder) Empty() bool { return len(b.read.pages) == 0 && len(b.write.pages) == 0 }

// BitmapCount returns the number of per-page bitmaps currently accumulated
// (read plus write) — the bitmaps the next Finish will deposit.
func (b *Builder) BitmapCount() int { return len(b.read.pages) + len(b.write.pages) }

// WrotePage reports whether any word of page p has been written in the
// current interval.
func (b *Builder) WrotePage(p mem.PageID) bool { return b.write.bits[p] != nil }

// Finish turns the accumulated footprint into a Record with the given
// identity and drains the builder for reuse. The per-page bitmaps are
// deposited into store (if non-nil), keyed by the interval, where they stay
// until a barrier check list requests them or the epoch is garbage
// collected.
func (b *Builder) Finish(id vc.IntervalID, v vc.VC, epoch int32, store *BitmapStore) *Record {
	read, write := b.drain(&b.read), b.drain(&b.write)
	if store != nil {
		store.add(id, read, write)
	}
	return &Record{ID: id, VC: v.Copy(), Epoch: epoch, ReadNotices: read.pages, WriteNotices: write.pages}
}

// drain empties f, returning its pages in ascending order (clipped: the
// Record shares them, so a later Put must reallocate) with copies of their
// bitmaps in one slab. The builder's own bitmaps are cleared and kept.
func (b *Builder) drain(f *footprint) pageBitmaps {
	if len(f.pages) == 0 {
		return pageBitmaps{}
	}
	slices.Sort(f.pages)
	w := len(f.bits[f.pages[0]])
	slab := make([]uint64, len(f.pages)*w)
	out := pageBitmaps{pages: slices.Clip(slices.Clone(f.pages)), bits: make([]mem.Bitmap, len(f.pages))}
	for i, p := range f.pages {
		out.bits[i] = slab[i*w : (i+1)*w : (i+1)*w]
		copy(out.bits[i], f.bits[p])
		f.bits[p].Reset()
		b.spare = append(b.spare, f.bits[p])
		f.bits[p] = nil
	}
	f.pages = f.pages[:0]
	return out
}

// BitmapStore retains the word-access bitmaps of locally created intervals
// until the race-detection pass at the next barrier has consumed them.
// "Our system only discards trace information when it has been checked for
// races" (§6.4). Intervals are held per process in index order, so a
// lookup is two binary searches and a discard cuts a prefix.
type BitmapStore struct {
	procs [][]storedInterval // by process, ascending interval index
	n     int                // bitmaps held, read+write
}

// storedInterval is one interval's bitmaps.
type storedInterval struct {
	index       vc.Index
	read, write pageBitmaps
}

// pageBitmaps is one access direction of a stored interval: an ascending
// page list and the bitmaps parallel to it.
type pageBitmaps struct {
	pages []mem.PageID
	bits  []mem.Bitmap
}

func (pb *pageBitmaps) get(p mem.PageID) mem.Bitmap {
	if i, ok := slices.BinarySearch(pb.pages, p); ok {
		return pb.bits[i]
	}
	return nil
}

// set stores bm for page p and reports whether p was new.
func (pb *pageBitmaps) set(p mem.PageID, bm mem.Bitmap) bool {
	i, ok := slices.BinarySearch(pb.pages, p)
	if !ok {
		pb.pages = slices.Insert(pb.pages, i, p)
		pb.bits = slices.Insert(pb.bits, i, nil)
	}
	pb.bits[i] = bm
	return !ok
}

// NewBitmapStore returns an empty store.
func NewBitmapStore() *BitmapStore { return &BitmapStore{} }

// findInterval returns the position of the first interval in s with index
// at least idx, and whether that interval is idx.
func findInterval(s []storedInterval, idx vc.Index) (int, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i].index >= idx })
	return i, i < len(s) && s[i].index == idx
}

// entry returns interval id's entry, inserting an empty one if absent.
func (s *BitmapStore) entry(id vc.IntervalID) *storedInterval {
	s.procs = extend(s.procs, id.Proc)
	ents := s.procs[id.Proc]
	i, ok := findInterval(ents, id.Index)
	if !ok {
		ents = slices.Insert(ents, i, storedInterval{index: id.Index})
		s.procs[id.Proc] = ents
	}
	return &ents[i]
}

// add stores the bitmaps Finish drained for interval id, replacing any
// held for it. An interval that accessed nothing stores nothing.
func (s *BitmapStore) add(id vc.IntervalID, read, write pageBitmaps) {
	if len(read.pages)+len(write.pages) == 0 {
		return
	}
	e := s.entry(id)
	s.n += len(read.pages) + len(write.pages) - len(e.read.pages) - len(e.write.pages)
	e.read, e.write = read, write
}

// Get returns the read and write bitmaps of interval id on page p; either
// may be nil if no such access occurred.
func (s *BitmapStore) Get(id vc.IntervalID, p mem.PageID) (read, write mem.Bitmap) {
	if id.Proc < len(s.procs) {
		ents := s.procs[id.Proc]
		if i, ok := findInterval(ents, id.Index); ok {
			return ents[i].read.get(p), ents[i].write.get(p)
		}
	}
	return nil, nil
}

// DiscardUpTo drops all bitmaps belonging to intervals with Index <= hi
// for the given process — called after the barrier's race check completes.
func (s *BitmapStore) DiscardUpTo(proc int, hi vc.Index) {
	s.procs = extend(s.procs, proc)
	ents := s.procs[proc]
	k := sort.Search(len(ents), func(i int) bool { return ents[i].index > hi })
	for _, e := range ents[:k] {
		s.n -= len(e.read.pages) + len(e.write.pages)
	}
	s.procs[proc] = slices.Delete(ents, 0, k)
}

// Len returns the number of stored (interval,page) bitmaps, read+write.
func (s *BitmapStore) Len() int { return s.n }

// StoredBitmap is one (interval, page) bitmap held by the store, with its
// access direction — the enumeration form used by checkpointing.
type StoredBitmap struct {
	ID    vc.IntervalID
	Page  mem.PageID
	Write bool
	Bits  mem.Bitmap
}

// Entries returns every stored bitmap in a deterministic order (reads then
// writes, each sorted by (proc, index, page)) so that serialized
// checkpoints are byte-stable.
func (s *BitmapStore) Entries() []StoredBitmap {
	out := make([]StoredBitmap, 0, s.n)
	for _, write := range []bool{false, true} {
		for proc, ents := range s.procs {
			for _, e := range ents {
				pb := e.read
				if write {
					pb = e.write
				}
				for i, p := range pb.pages {
					out = append(out, StoredBitmap{ID: vc.IntervalID{Proc: proc, Index: e.index}, Page: p, Write: write, Bits: pb.bits[i]})
				}
			}
		}
	}
	return out
}

// Put inserts one bitmap (the checkpoint-restore inverse of Entries).
func (s *BitmapStore) Put(id vc.IntervalID, p mem.PageID, write bool, bm mem.Bitmap) {
	e := s.entry(id)
	pb := &e.read
	if write {
		pb = &e.write
	}
	if pb.set(p, bm) {
		s.n++
	}
}

// Log is a process's table of known interval records — its own and those
// received via synchronization messages — used to compute the consistency
// deltas appended to lock grants and barrier messages. Records are held
// per process in index order, so a delta is a binary search and a walk
// per process and a prune cuts a prefix.
type Log struct {
	procs [][]*Record // by process, ascending interval index
	n     int
}

// NewLog returns an empty log.
func NewLog() *Log { return &Log{} }

// findRecord returns the position of the first record in s with index at
// least idx, and whether that record is idx.
func findRecord(s []*Record, idx vc.Index) (int, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i].ID.Index >= idx })
	return i, i < len(s) && s[i].ID.Index == idx
}

// firstAbove returns the position of the first record in s with index
// above idx.
func firstAbove(s []*Record, idx vc.Index) int {
	return sort.Search(len(s), func(i int) bool { return s[i].ID.Index > idx })
}

// Add inserts r (no-op if already present).
func (l *Log) Add(r *Record) {
	l.procs = extend(l.procs, r.ID.Proc)
	recs := l.procs[r.ID.Proc]
	i, dup := findRecord(recs, r.ID.Index)
	if dup {
		return
	}
	l.procs[r.ID.Proc] = slices.Insert(recs, i, r)
	l.n++
}

// Get returns the record for id, or nil.
func (l *Log) Get(id vc.IntervalID) *Record {
	if id.Proc < len(l.procs) {
		recs := l.procs[id.Proc]
		if i, ok := findRecord(recs, id.Index); ok {
			return recs[i]
		}
	}
	return nil
}

// Len returns the number of records held.
func (l *Log) Len() int { return l.n }

// Records returns every held record sorted by (proc, index) — the
// deterministic enumeration checkpointing serializes.
func (l *Log) Records() []*Record {
	out := make([]*Record, 0, l.n)
	for _, recs := range l.procs {
		out = append(out, recs...)
	}
	return out
}

// Delta returns every known record not yet seen by a process whose version
// vector is theirs — the "structures describing intervals seen by the
// releaser but not the acquirer" that LRC piggybacks on synchronization
// messages. Records are returned in (proc, index) order so transfer and
// application are deterministic.
func (l *Log) Delta(theirs vc.VC) []*Record { return l.DeltaCapped(theirs, nil) }

// DeltaCapped is Delta restricted to records within the knowledge horizon
// cap — used for lock grants, which must carry what the releaser had seen
// *at the release*, not what the granter happens to know by grant time
// (knowledge gained after the release is not ordered before the acquire,
// and leaking it would create false happens-before-1 edges that hide
// races). A nil cap means no restriction.
func (l *Log) DeltaCapped(theirs, cap vc.VC) []*Record {
	var out []*Record
	for proc, recs := range l.procs {
		for _, r := range recs[firstAbove(recs, theirs[proc]):] {
			if cap != nil && r.ID.Index > cap[proc] {
				break
			}
			out = append(out, r)
		}
	}
	return out
}

// PruneBefore discards records dominated by horizon: after a barrier every
// process has seen every interval of the finished epoch, so records at or
// below the horizon can never appear in a future delta. This is the
// consistency-information garbage collection CVM runs at barriers.
func (l *Log) PruneBefore(horizon vc.VC) {
	for proc, recs := range l.procs {
		k := firstAbove(recs, horizon[proc])
		l.n -= k
		l.procs[proc] = slices.Delete(recs, 0, k)
	}
}

// extend returns s grown with zero values so that s[i] exists.
func extend[T any](s []T, i int) []T {
	if i < len(s) {
		return s
	}
	return append(s, make([]T, i+1-len(s))...)
}
