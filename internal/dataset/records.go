package dataset

import (
	"hash/maphash"
	"strings"
	"unsafe"
)

// Slab sizing for RecordStore: fixed 4096-record slabs keep append cost
// O(1) without the realloc-copy spikes of a single growing slice, and
// make lock-free prefix reads safe — a slot, once written, is never
// moved or rewritten.
const (
	slabShift = 12
	slabSize  = 1 << slabShift
	slabMask  = slabSize - 1
)

// Clone returns a deep copy of the record: the parallel attempt slices
// get fresh backing arrays, so mutating the original afterwards cannot
// alias into the copy. Nil slices stay nil (MarshalJSON distinguishes
// null from []).
func (r Record) Clone() Record {
	c := r
	c.FromIP = cloneStrings(r.FromIP)
	c.ToIP = cloneStrings(r.ToIP)
	c.DeliveryResult = cloneStrings(r.DeliveryResult)
	if r.DeliveryLatency != nil {
		c.DeliveryLatency = make([]int64, len(r.DeliveryLatency))
		copy(c.DeliveryLatency, r.DeliveryLatency)
	}
	return c
}

func cloneStrings(s []string) []string {
	if s == nil {
		return nil
	}
	c := make([]string, len(s))
	copy(c, s)
	return c
}

// RecordStore holds records in fixed-size slabs. It is not
// concurrency-safe by itself; callers serialize AppendCopy and take
// View under the same lock. Slots already appended are immutable, so a
// View taken under the lock may be read lock-free afterwards while
// further appends proceed.
//
// The store owns every byte it holds: AppendCopy copies each string
// into the store's own arenas, so a stored record pins nothing of the
// memory its caller decoded it into (a Decoder's 64 KiB chunk, a
// checkpoint blob). The strings that repeat across records — sender,
// flag, proxy and receiver IPs, and the NDR lines, which collapse to a
// few thousand distinct values the way the paper's 190M NDRs collapse
// to ≈ 10K Drain templates — are interned by value: one copy per
// distinct value, shared by every record that carries it. Recipients
// and 2xx lines are copied, not interned: a recipient or a queue id is
// shared by few records, and looking each up in a table of thousands
// costs the consumer more than the copy saves. Each interned
// value lives as the one element of a store-owned span, which also
// serves every one-attempt record's FromIP and ToIP, and its
// DeliveryResult when that is one NDR line: most records' attempt
// slices cost no span of their own.
type RecordStore struct {
	slabs [][]Record
	n     int

	// Arenas backing AppendCopy's isolated slices and string bytes.
	// Spans handed out are full-capacity and never rewritten, so views
	// alias them safely. The interned values have an arena of their
	// own, held, so the bytes a lookup compares stay packed together
	// instead of strewn among the copies.
	strs        Arena[string]
	ints        Arena[int64]
	bytes, held byteArena

	// One interned set per field: the few proxy IPs and flags stay in
	// cache apart from the NDR lines.
	from, flag, fromIP, toIP, lines internSet
}

// blank is the span of the empty string: never interned, never written.
var blank = new(string)

// AppendCopy appends a copy of *rec that shares no memory with it: the
// attempt slices are copied into store-owned arena chunks and every
// string into the store's byte arenas, interned where it repeats (see
// RecordStore). The caller may mutate, reuse or drop rec and whatever
// backs it afterwards. Nil slices stay nil and non-nil empties stay
// non-nil (MarshalJSON's null-vs-[] distinction), matching
// Record.Clone. It returns the stored copy, which must not be mutated.
func (s *RecordStore) AppendCopy(rec *Record) *Record {
	c := s.slot()
	_, c.From = s.intern(&s.from, rec.From)
	c.To = s.bytes.copyString(rec.To)
	c.StartTime, c.EndTime = rec.StartTime, rec.EndTime
	c.FromIP = s.internAll(&s.fromIP, rec.FromIP)
	c.ToIP = s.internAll(&s.toIP, rec.ToIP)
	c.DeliveryResult = s.copyResults(rec.DeliveryResult)
	switch {
	case rec.DeliveryLatency == nil:
	case len(rec.DeliveryLatency) == 0:
		c.DeliveryLatency = emptyInts
	default:
		c.DeliveryLatency = s.ints.Alloc(len(rec.DeliveryLatency))
		copy(c.DeliveryLatency, rec.DeliveryLatency)
	}
	_, c.EmailFlag = s.intern(&s.flag, rec.EmailFlag)
	s.n++
	return c
}

// slot returns the next record slot, zeroed, for AppendCopy to fill in
// place; it is not counted (nor in any View) until AppendCopy is done.
func (s *RecordStore) slot() *Record {
	i := s.n >> slabShift
	if i == len(s.slabs) {
		s.slabs = append(s.slabs, make([]Record, 0, slabSize))
	}
	s.slabs[i] = s.slabs[i][:len(s.slabs[i])+1]
	return &s.slabs[i][len(s.slabs[i])-1]
}

// copyResults copies delivery lines: each 2xx into the byte arena, each
// other interned in s.lines. A retry often fails as the attempt before
// it did (8,115 of the corpus's 35,433 failed lines repeat the one
// before), and such a line needs no lookup.
func (s *RecordStore) copyResults(src []string) []string {
	switch {
	case src == nil:
		return nil
	case len(src) == 0:
		return emptyStrings
	case len(src) == 1 && !strings.HasPrefix(src[0], "2"):
		p, _ := s.intern(&s.lines, src[0])
		return unsafe.Slice(p, 1)
	}
	dst := s.strs.Alloc(len(src))
	for i, line := range src {
		switch {
		case strings.HasPrefix(line, "2"):
			dst[i] = s.bytes.copyString(line)
		case i > 0 && line == src[i-1]:
			dst[i] = dst[i-1]
		default:
			_, dst[i] = s.intern(&s.lines, line)
		}
	}
	return dst
}

// internAll copies src into a store-owned span of values interned in
// set; one value's span is its own. An attempt repeats the IP of the
// one before it more often than not, which needs no lookup.
func (s *RecordStore) internAll(set *internSet, src []string) []string {
	switch len(src) {
	case 0:
		if src == nil {
			return nil
		}
		return emptyStrings
	case 1:
		p, _ := s.intern(set, src[0])
		return unsafe.Slice(p, 1)
	}
	dst := s.strs.Alloc(len(src))
	for i, v := range src {
		if i > 0 && v == src[i-1] {
			dst[i] = dst[i-1]
			continue
		}
		_, dst[i] = s.intern(set, v)
	}
	return dst
}

// intern returns set's one-element span holding v and the value it
// holds, making both — and v's copy in the held arena — on first
// sight. The value comes from the set's slot, which the probe has just
// read, not through the span.
func (s *RecordStore) intern(set *internSet, v string) (*string, string) {
	if v == "" {
		return blank, ""
	}
	h := maphash.String(internSeed, v) | 1 // odd: 0 marks an empty slot
	sl := set.find(h, v)
	if sl == nil {
		p := &s.strs.Alloc(1)[0]
		*p = s.held.copyString(v)
		sl = set.add(h, p)
	}
	return sl.v, sl.s
}

// internSeed keys the hash of every internSet; a per-process seed is
// enough, as nothing hashed is ever written out.
var internSeed = maphash.MakeSeed()

// internSet is a set of distinct strings, open-addressed with linear
// probing. The zero value is empty.
type internSet struct {
	slots []internSlot // a power of two long, at most three quarters full
	n     int
}

// internSlot holds one value, its span and its hash (0: an empty
// slot). The value is kept beside the span, not read through it, so a
// probe that finds it reads no other cache line than the value's bytes.
type internSlot struct {
	hash uint64
	s    string
	v    *string
}

// find returns the slot of the held value equal to v, whose hash is h,
// or nil.
func (t *internSet) find(h uint64, v string) *internSlot {
	if t.n == 0 {
		return nil
	}
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		sl := &t.slots[i]
		switch {
		case sl.hash == 0:
			return nil
		case sl.hash == h && sl.s == v:
			return sl
		}
	}
}

// add inserts p, whose value (hash h) the set does not hold, and
// returns its slot.
func (t *internSet) add(h uint64, p *string) *internSlot {
	if 4*(t.n+1) > 3*len(t.slots) {
		old := t.slots
		t.slots = make([]internSlot, max(64, 2*len(old)))
		for _, sl := range old {
			if sl.hash != 0 {
				t.put(sl)
			}
		}
	}
	t.n++
	return t.put(internSlot{h, *p, p})
}

func (t *internSet) put(sl internSlot) *internSlot {
	mask := uint64(len(t.slots) - 1)
	i := sl.hash & mask
	for t.slots[i].hash != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = sl
	return &t.slots[i]
}

// Len returns the number of records appended so far.
func (s *RecordStore) Len() int { return s.n }

// View returns an immutable prefix view over the records appended so
// far. The slab headers are copied, so later Appends (even ones that
// extend the final slab in place) are invisible to the view.
func (s *RecordStore) View() Records {
	slabs := make([][]Record, len(s.slabs))
	copy(slabs, s.slabs)
	return Records{slabs: slabs, n: s.n}
}

// Records is a read-only, index-addressable view over a sequence of
// records — either a plain slice or a RecordStore prefix. It is a small
// value (copy freely); the underlying records must not be mutated.
type Records struct {
	flat  []Record
	slabs [][]Record
	n     int
}

// SliceRecords wraps a plain slice as a Records view.
func SliceRecords(rs []Record) Records { return Records{flat: rs, n: len(rs)} }

// Len returns the number of records in the view.
func (v Records) Len() int { return v.n }

// At returns the i-th record. The pointer stays valid for the lifetime
// of the view; callers must not mutate through it.
func (v Records) At(i int) *Record {
	if v.flat != nil {
		return &v.flat[i]
	}
	return &v.slabs[i>>slabShift][i&slabMask]
}

// Flatten copies the view into a new contiguous slice.
func (v Records) Flatten() []Record {
	out := make([]Record, v.n)
	for i := 0; i < v.n; i++ {
		out[i] = *v.At(i)
	}
	return out
}
