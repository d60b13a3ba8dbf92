package castore

import (
	"bytes"
	"errors"
	"sort"
	"testing"
)

func TestPutGetRoundTrip(t *testing.T) {
	s := New()
	blobs := [][]byte{[]byte("alpha"), []byte("beta"), {0, 1, 2, 3}, {}}
	var addrs []Addr
	for _, b := range blobs {
		a, isNew := s.Put(b)
		if !isNew {
			t.Fatalf("first Put of %q not new", b)
		}
		if a != Sum(b) {
			t.Fatalf("Put address != Sum for %q", b)
		}
		addrs = append(addrs, a)
	}
	for i, a := range addrs {
		got, err := s.Get(a)
		if err != nil {
			t.Fatalf("Get(%s): %v", a, err)
		}
		if !bytes.Equal(got, blobs[i]) {
			t.Fatalf("Get(%s) = %q, want %q", a, got, blobs[i])
		}
	}
	if s.Len() != len(blobs) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(blobs))
	}
}

func TestDedupAndStats(t *testing.T) {
	s := New()
	b := []byte("shared page contents")
	a1, new1 := s.Put(b)
	a2, new2 := s.Put(b)
	if a1 != a2 {
		t.Fatal("identical contents produced different addresses")
	}
	if !new1 || new2 {
		t.Fatalf("newness = %v,%v, want true,false", new1, new2)
	}
	st := s.Stats()
	if st.Puts != 2 || st.Hits != 1 {
		t.Fatalf("Puts/Hits = %d/%d, want 2/1", st.Puts, st.Hits)
	}
	if st.StoredBytes != int64(len(b)) || st.LogicalBytes != int64(2*len(b)) {
		t.Fatalf("Stored/Logical = %d/%d, want %d/%d",
			st.StoredBytes, st.LogicalBytes, len(b), 2*len(b))
	}
	if s.Len() != 1 || st.LiveBytes != int64(len(b)) {
		t.Fatalf("Len/LiveBytes = %d/%d, want 1/%d", s.Len(), st.LiveBytes, len(b))
	}
}

func TestRefcountFreesAtZero(t *testing.T) {
	s := New()
	b := []byte("twin")
	a, _ := s.Put(b)
	s.Put(b) // refs = 2
	s.Unref(a)
	if !s.Contains(a) {
		t.Fatal("chunk freed with one reference outstanding")
	}
	s.Unref(a)
	if s.Contains(a) {
		t.Fatal("chunk survived its last Unref")
	}
	if _, err := s.Get(a); !errors.Is(err, ErrMissing) {
		t.Fatalf("Get after free: %v, want ErrMissing", err)
	}
	if st := s.Stats(); st.FreedBytes != int64(len(b)) || st.LiveBytes != 0 {
		t.Fatalf("Freed/Live = %d/%d, want %d/0", st.FreedBytes, st.LiveBytes, len(b))
	}
	s.Unref(a) // absent address: must be a no-op
}

func TestTamperDetectedAndHealed(t *testing.T) {
	s := New()
	b := []byte("page bytes under test")
	a, _ := s.Put(b)
	if !s.Tamper(a) {
		t.Fatal("Tamper found nothing to corrupt")
	}
	if _, err := s.Get(a); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get of tampered chunk: %v, want ErrCorrupt", err)
	}
	// A fresh deposit of the true contents is authoritative: it heals.
	if _, isNew := s.Put(b); isNew {
		t.Fatal("healing Put reported the chunk as new")
	}
	got, err := s.Get(a)
	if err != nil || !bytes.Equal(got, b) {
		t.Fatalf("Get after heal = %q, %v", got, err)
	}
	if st := s.Stats(); st.Heals != 1 || st.Tampers != 1 {
		t.Fatalf("Heals/Tampers = %d/%d, want 1/1", st.Heals, st.Tampers)
	}
}

func TestDeleteDetectedAndHealed(t *testing.T) {
	s := New()
	b := []byte("deleted out from under its refcount")
	a, _ := s.Put(b)
	if !s.Delete(a) {
		t.Fatal("Delete found nothing to drop")
	}
	if _, err := s.Get(a); !errors.Is(err, ErrMissing) {
		t.Fatalf("Get of deleted chunk: %v, want ErrMissing", err)
	}
	if s.Delete(a) {
		t.Fatal("second Delete of the same chunk reported success")
	}
	s.Put(b)
	if got, err := s.Get(a); err != nil || !bytes.Equal(got, b) {
		t.Fatalf("Get after healing re-Put = %q, %v", got, err)
	}
}

// TestDedupHitAllocatesNothing: a Put of bytes already resident and intact
// must not copy them — only new or healing deposits keep a copy.
func TestDedupHitAllocatesNothing(t *testing.T) {
	s := New()
	b := bytes.Repeat([]byte{7}, 8192)
	s.Put(b)
	if n := testing.AllocsPerRun(100, func() { s.Put(b) }); n != 0 {
		t.Fatalf("dedup-hit Put allocated %.1f times per call, want 0", n)
	}
}

func TestTamperEmptyChunk(t *testing.T) {
	s := New()
	a, _ := s.Put(nil)
	if got, err := s.Get(a); err != nil || len(got) != 0 {
		t.Fatalf("Get of empty chunk = %q, %v", got, err)
	}
	if !s.Tamper(a) {
		t.Fatal("Tamper of empty chunk reported nothing there")
	}
	if _, err := s.Get(a); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get of tampered empty chunk: %v, want ErrCorrupt", err)
	}
}

func TestAddrsSortedDeterministic(t *testing.T) {
	s := New()
	for _, b := range [][]byte{[]byte("c"), []byte("a"), []byte("b"), []byte("d")} {
		s.Put(b)
	}
	addrs := s.Addrs()
	if len(addrs) != 4 {
		t.Fatalf("len(Addrs) = %d, want 4", len(addrs))
	}
	if !sort.SliceIsSorted(addrs, func(i, j int) bool {
		return bytes.Compare(addrs[i][:], addrs[j][:]) < 0
	}) {
		t.Fatal("Addrs not lexicographically sorted")
	}
	again := s.Addrs()
	for i := range addrs {
		if addrs[i] != again[i] {
			t.Fatal("Addrs enumeration not stable")
		}
	}
}
