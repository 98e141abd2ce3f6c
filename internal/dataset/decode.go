package dataset

import (
	"encoding/binary"
	"math/bits"
	"sync"
	"time"
	"unicode/utf16"
	"unicode/utf8"
)

// Decoder decodes Figure-3 JSON lines into Records with a fraction of
// encoding/json's cost: a hand-rolled parser for the fixed schema packs
// every string of a record into one backing blob, scans fields with
// memchr-style vectorized byte searches, and backs the blob and the
// record's slices with arena chunks — amortized well under one heap
// allocation per record (encoding/json: ~29). Anything the fast path
// does not recognise — unknown keys, exotic escapes, malformed input —
// falls back to Record.UnmarshalJSON, so observable behaviour
// (including error text) is always encoding/json's.
//
// Decode overwrites every field of dst with freshly backed values; the
// scratch buffers are internal and the arenas append-only, so returned
// records stay valid across calls. A Decoder is not safe for concurrent
// use; give each goroutine its own.
type Decoder struct {
	buf  []byte // string-byte accumulator; becomes one blob per record
	strs []span // spans into buf, one per string-array element
	ints []int64

	blobs   byteArena     // per-record blobs
	strArrs Arena[string] // from_ip/to_ip/delivery_result backings
	intArrs Arena[int64]  // delivery_latency backings
}

type span struct{ off, end int }

// decoders holds Decoders between requests. A fresh one costs its three
// arena chunks (160 KiB, zeroed) on first use, which is a corpus's
// worth of set-up for a body of a few hundred records.
var decoders = sync.Pool{New: func() any { return new(Decoder) }}

// GetDecoder returns a Decoder for the caller's exclusive use until it
// hands it back with PutDecoder. Records it decoded for an earlier
// owner are unaffected by what it decodes next (see arena.go).
func GetDecoder() *Decoder { return decoders.Get().(*Decoder) }

// PutDecoder gives d up for the next GetDecoder. Records decoded with
// it stay valid. Scratch a 16 MB line grew is dropped, not pooled.
func PutDecoder(d *Decoder) {
	if cap(d.buf) > 4*byteArenaChunk {
		d.buf = nil
	}
	decoders.Put(d)
}

// Shared empty slices: the fast path returns these for present-but-empty
// arrays ("from_ip":[]), preserving UnmarshalJSON's nil-vs-empty
// distinction without an allocation. They have zero capacity, so append
// by a caller copies rather than writes through.
var (
	emptyStrings = make([]string, 0)
	emptyInts    = make([]int64, 0)
)

// Decode parses one JSON object into dst.
func (d *Decoder) Decode(b []byte, dst *Record) error {
	if d.fastDecode(b, dst) {
		return nil
	}
	return dst.UnmarshalJSON(b)
}

// Field states for array members: absent and null both decode to nil
// (as encoding/json does for a fresh struct); present arrays carry the
// index range of their elements.
type arrField struct {
	set    bool
	null   bool
	lo, hi int // element range in Decoder.strs or Decoder.ints
}

func (d *Decoder) fastDecode(b []byte, dst *Record) bool {
	d.buf, d.strs, d.ints = d.buf[:0], d.strs[:0], d.ints[:0]
	p := &jparser{b: b}

	var from, to, flag span
	var haveStart, haveEnd bool
	var start, end time.Time
	var fromIP, toIP, result, latency arrField

	p.space()
	if !p.eat('{') {
		return false
	}
	p.space()
	if !p.eat('}') {
		for {
			p.space()
			key, ok := p.rawString()
			if !ok {
				return false
			}
			p.space()
			if !p.eat(':') {
				return false
			}
			p.space()
			switch string(key) {
			case "from":
				from, ok = d.strField(p)
			case "to":
				to, ok = d.strField(p)
			case "email_flag":
				flag, ok = d.strField(p)
			case "start_time":
				var v []byte
				if v, ok = p.rawString(); ok {
					start, ok = parseTimeBytes(v)
					haveStart = true
				}
			case "end_time":
				var v []byte
				if v, ok = p.rawString(); ok {
					end, ok = parseTimeBytes(v)
					haveEnd = true
				}
			case "from_ip":
				fromIP, ok = d.strArray(p)
			case "to_ip":
				toIP, ok = d.strArray(p)
			case "delivery_result":
				result, ok = d.strArray(p)
			case "delivery_latency":
				latency, ok = d.intArray(p)
			default:
				return false
			}
			if !ok {
				return false
			}
			p.space()
			if p.eat(',') {
				continue
			}
			if p.eat('}') {
				break
			}
			return false
		}
	}
	p.space()
	if p.i != len(p.b) {
		return false
	}
	// UnmarshalJSON rejects records whose timestamps are missing or
	// unparseable; let the fallback produce its exact error.
	if !haveStart || !haveEnd {
		return false
	}

	blob := d.blobs.intern(d.buf)
	str := func(sp span) string { return blob[sp.off:sp.end] }
	var arr []string
	if len(d.strs) > 0 {
		arr = d.strArrs.Alloc(len(d.strs))
		for i, sp := range d.strs {
			arr[i] = blob[sp.off:sp.end]
		}
	}
	strSeg := func(f arrField) []string {
		switch {
		case !f.set || f.null:
			return nil
		case f.lo == f.hi:
			return emptyStrings
		}
		return arr[f.lo:f.hi:f.hi]
	}
	var lat []int64
	switch {
	case !latency.set || latency.null:
	case len(d.ints) == 0:
		lat = emptyInts
	default:
		lat = d.intArrs.Alloc(len(d.ints))
		copy(lat, d.ints)
	}
	*dst = Record{
		From: str(from), To: str(to),
		StartTime: start, EndTime: end,
		FromIP: strSeg(fromIP), ToIP: strSeg(toIP), DeliveryResult: strSeg(result),
		DeliveryLatency: lat,
		EmailFlag:       str(flag),
	}
	return true
}

// strField parses a string value into the blob, decoding escape
// sequences (json.Marshal HTML-escapes < > & as < etc., so real
// NDR lines hit this constantly). Returns the blob span.
//
// Scanning is vectorized: bytes.IndexByte (assembly memchr) locates the
// closing quote and any backslash, and the clean run between escapes is
// control-checked eight bytes at a time and bulk-appended, instead of
// walking byte by byte.
func (d *Decoder) strField(p *jparser) (span, bool) {
	if !p.eat('"') {
		return span{}, false
	}
	off := len(d.buf)
	for {
		rest := p.b[p.i:]
		j, high := scanQuoted(rest)
		if j == len(rest) {
			return span{}, false // unterminated string
		}
		if rest[j] < 0x20 {
			return span{}, false // raw control char: stdlib rejects it
		}
		seg := rest[:j]
		if high && !utf8.Valid(seg) {
			// Invalid UTF-8: stdlib rewrites bad sequences to U+FFFD;
			// let the fallback reproduce that exactly. (A multi-byte
			// sequence never contains '"' or '\\', so validity is
			// decidable per segment.)
			return span{}, false
		}
		d.buf = append(d.buf, seg...)
		if rest[j] == '"' {
			p.i += j + 1
			return span{off, len(d.buf)}, true
		}
		p.i += j + 1 // past the backslash; escape() consumes the rest
		var ok bool
		d.buf, ok = p.escape(d.buf)
		if !ok {
			return span{}, false
		}
	}
}

// scanQuoted scans s for the first structural byte of a quoted JSON
// string — a closing quote, a backslash, or a raw control byte — and
// returns its index (len(s) if none), plus whether any scanned byte is
// non-ASCII. One word-at-a-time pass replaces the two bytes.IndexByte
// calls plus a separate validation sweep the caller would otherwise
// make. Per byte b of each 8-byte word, the SWAR "hasless"/"haszero"
// tricks mark b == '"', b == '\\', and b < 0x20 in parallel: a zero
// byte in x^c sets its high marker bit in (y - 0x01…) & ^y & 0x80…,
// and a byte below 0x20 sets it in (x - 0x20·0x01…) & ^x & 0x80….
// UTF-8 continuation bytes keep their own high bit, so neither trick
// can false-positive on multi-byte sequences; the quote and backslash
// code points never occur inside one. nonASCII may overreport bytes
// that share the final word with the stop byte — callers only use it
// to decide whether to run a full utf8.Valid pass, so the slack is a
// spurious (always-passing) check, never a wrong answer.
func scanQuoted(s []byte) (stop int, nonASCII bool) {
	const (
		ones    = 0x0101010101010101
		highBit = 0x8080808080808080
		quotes  = 0x22 * ones
		slashes = 0x5c * ones
	)
	i := 0
	var hi uint64
	for ; i+8 <= len(s); i += 8 {
		x := binary.LittleEndian.Uint64(s[i:])
		hi |= x
		q := x ^ quotes
		b := x ^ slashes
		m := ((q - ones) & ^q & highBit) |
			((b - ones) & ^b & highBit) |
			((x - 0x20*ones) & ^x & highBit)
		if m != 0 {
			return i + bits.TrailingZeros64(m)/8, hi&highBit != 0
		}
	}
	for ; i < len(s); i++ {
		c := s[i]
		if c == '"' || c == '\\' || c < 0x20 {
			return i, nonASCII || hi&highBit != 0
		}
		if c >= 0x80 {
			nonASCII = true
		}
	}
	return len(s), nonASCII || hi&highBit != 0
}

// escape decodes one escape sequence (cursor is past the backslash),
// appending its expansion to dst. Matches encoding/json's unquoting,
// including the lone-surrogate → U+FFFD rule; anything else bails to
// the fallback.
func (p *jparser) escape(dst []byte) ([]byte, bool) {
	if p.i >= len(p.b) {
		return dst, false
	}
	c := p.b[p.i]
	p.i++
	switch c {
	case '"', '\\', '/':
		return append(dst, c), true
	case 'b':
		return append(dst, '\b'), true
	case 'f':
		return append(dst, '\f'), true
	case 'n':
		return append(dst, '\n'), true
	case 'r':
		return append(dst, '\r'), true
	case 't':
		return append(dst, '\t'), true
	case 'u':
		r, ok := p.hex4()
		if !ok {
			return dst, false
		}
		if utf16.IsSurrogate(r) {
			if p.i+6 <= len(p.b) && p.b[p.i] == '\\' && p.b[p.i+1] == 'u' {
				save := p.i
				p.i += 2
				if r2, ok2 := p.hex4(); ok2 {
					if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
						return utf8.AppendRune(dst, dec), true
					}
				}
				p.i = save // invalid pair: emit U+FFFD, reprocess the rest
			}
			return utf8.AppendRune(dst, utf8.RuneError), true
		}
		return utf8.AppendRune(dst, r), true
	}
	return dst, false
}

// hex4 reads four hex digits as a rune.
func (p *jparser) hex4() (rune, bool) {
	if p.i+4 > len(p.b) {
		return 0, false
	}
	var r rune
	for _, c := range p.b[p.i : p.i+4] {
		switch {
		case c >= '0' && c <= '9':
			r = r<<4 + rune(c-'0')
		case c >= 'a' && c <= 'f':
			r = r<<4 + rune(c-'a'+10)
		case c >= 'A' && c <= 'F':
			r = r<<4 + rune(c-'A'+10)
		default:
			return 0, false
		}
	}
	p.i += 4
	return r, true
}

// strArray parses null or an array of strings into the blob.
func (d *Decoder) strArray(p *jparser) (arrField, bool) {
	if p.null() {
		return arrField{set: true, null: true}, true
	}
	if !p.eat('[') {
		return arrField{}, false
	}
	f := arrField{set: true, lo: len(d.strs)}
	p.space()
	if p.eat(']') {
		f.hi = f.lo
		return f, true
	}
	for {
		p.space()
		sp, ok := d.strField(p)
		if !ok {
			return f, false
		}
		d.strs = append(d.strs, sp)
		p.space()
		if p.eat(',') {
			continue
		}
		if p.eat(']') {
			f.hi = len(d.strs)
			return f, true
		}
		return f, false
	}
}

// intArray parses null or an array of plain integers.
func (d *Decoder) intArray(p *jparser) (arrField, bool) {
	if p.null() {
		return arrField{set: true, null: true}, true
	}
	if !p.eat('[') {
		return arrField{}, false
	}
	f := arrField{set: true}
	p.space()
	if p.eat(']') {
		return f, true
	}
	for {
		p.space()
		v, ok := p.integer()
		if !ok {
			return f, false
		}
		d.ints = append(d.ints, v)
		p.space()
		if p.eat(',') {
			continue
		}
		if p.eat(']') {
			return f, true
		}
		return f, false
	}
}

// jparser is a cursor over one JSON line. Every method reports failure
// via ok=false, which sends the whole line to the encoding/json
// fallback — the fast path never produces its own errors.
type jparser struct {
	b []byte
	i int
}

func (p *jparser) space() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\r', '\n':
			p.i++
		default:
			return
		}
	}
}

func (p *jparser) eat(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// rawString scans a quoted string with no escapes, returning the raw
// bytes between the quotes. Escapes and control characters bail out.
// Like strField, it leans on one scanQuoted sweep rather than a byte
// loop.
func (p *jparser) rawString() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	rest := p.b[p.i:]
	j, _ := scanQuoted(rest)
	if j == len(rest) || rest[j] != '"' {
		return nil, false
	}
	p.i += j + 1
	return rest[:j], true
}

func (p *jparser) null() bool {
	if p.i+4 <= len(p.b) && string(p.b[p.i:p.i+4]) == "null" {
		p.i += 4
		return true
	}
	return false
}

// integer parses an optionally signed run of digits; anything fancier
// (exponents, fractions, overflow) falls back to encoding/json.
func (p *jparser) integer() (int64, bool) {
	neg := p.eat('-')
	start := p.i
	var v int64
	for p.i < len(p.b) {
		c := p.b[p.i]
		if c < '0' || c > '9' {
			break
		}
		if v > (1<<62)/10 {
			return 0, false
		}
		v = v*10 + int64(c-'0')
		p.i++
	}
	if p.i == start {
		return 0, false
	}
	if neg {
		v = -v
	}
	return v, true
}

// parseTimeBytes parses TimeLayout ("2006-01-02 15:04:05") from raw
// bytes. time.Date normalises out-of-range components (Feb 30 becomes
// Mar 2) where time.Parse errors, so the round-trip check rejects any
// line stdlib would reject and routes it to the fallback.
func parseTimeBytes(s []byte) (time.Time, bool) {
	if len(s) != 19 || s[4] != '-' || s[7] != '-' || s[10] != ' ' || s[13] != ':' || s[16] != ':' {
		return time.Time{}, false
	}
	num := func(i, n int) (int, bool) {
		v := 0
		for _, c := range s[i : i+n] {
			if c < '0' || c > '9' {
				return 0, false
			}
			v = v*10 + int(c-'0')
		}
		return v, true
	}
	y, ok1 := num(0, 4)
	mo, ok2 := num(5, 2)
	dd, ok3 := num(8, 2)
	hh, ok4 := num(11, 2)
	mi, ok5 := num(14, 2)
	ss, ok6 := num(17, 2)
	if !(ok1 && ok2 && ok3 && ok4 && ok5 && ok6) {
		return time.Time{}, false
	}
	// Range-check arithmetically instead of round-tripping through the
	// time.Time accessors (six absDate computations per timestamp):
	// these are exactly the bounds time.Parse enforces, including the
	// Gregorian leap rule for February, so the fallback agrees on every
	// input. num() already guarantees non-negative values.
	if mo < 1 || mo > 12 || hh > 23 || mi > 59 || ss > 59 {
		return time.Time{}, false
	}
	maxDay := int(daysInMonth[mo])
	if mo == 2 && y%4 == 0 && (y%100 != 0 || y%400 == 0) {
		maxDay = 29
	}
	if dd < 1 || dd > maxDay {
		return time.Time{}, false
	}
	return time.Date(y, time.Month(mo), dd, hh, mi, ss, 0, time.UTC), true
}

var daysInMonth = [13]int8{0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31}
