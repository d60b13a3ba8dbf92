package mem

import "slices"

// PageSet is a set of pages of one segment: a dense membership table
// indexed by page plus the member list, so adding and testing a page are
// slice indexes and clearing costs time proportional to the members, not
// to the segment.
type PageSet struct {
	in    []bool
	pages []PageID // members in insertion order
}

// NewPageSet returns an empty set over pages [0, numPages).
func NewPageSet(numPages int) PageSet { return PageSet{in: make([]bool, numPages)} }

// Add inserts p.
func (s *PageSet) Add(p PageID) {
	if !s.in[p] {
		s.in[p] = true
		s.pages = append(s.pages, p)
	}
}

// Has reports whether p is a member.
func (s *PageSet) Has(p PageID) bool { return s.in[p] }

// Pages returns the members in insertion order. The slice is the set's
// own and is valid until the next Add or Clear.
func (s *PageSet) Pages() []PageID { return s.pages }

// Sorted returns a fresh, ascending copy of the members (nil if none).
func (s *PageSet) Sorted() []PageID {
	out := append([]PageID(nil), s.pages...)
	slices.Sort(out)
	return out
}

// Clear removes every member, keeping the storage for reuse.
func (s *PageSet) Clear() {
	for _, p := range s.pages {
		s.in[p] = false
	}
	s.pages = s.pages[:0]
}
