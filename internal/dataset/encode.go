package dataset

import (
	"strconv"
	"time"
	"unicode/utf8"
)

// AppendJSON appends the record's Figure-3 JSON object to dst and
// returns the extended slice: the one encoder behind MarshalJSON, the
// WAL and the generators. The bytes are what encoding/json writes for
// the wire struct UnmarshalJSON reads (FuzzAppendJSONMatchesMarshal
// holds it to that): the same field order, null for a nil slice and []
// for an empty one, and encoding/json's string escaping, HTML-safe set
// included. Written by hand because it runs once per record on every
// durable node — into a buffer the caller keeps it allocates nothing.
func (r *Record) AppendJSON(dst []byte) []byte {
	dst = appendJSONString(append(dst, `{"from":`...), r.From)
	dst = appendJSONString(append(dst, `,"to":`...), r.To)
	dst = appendTime(append(dst, `,"start_time":"`...), r.StartTime)
	dst = appendTime(append(dst, `","end_time":"`...), r.EndTime)
	dst = appendJSONStrings(append(dst, `","from_ip":`...), r.FromIP)
	dst = appendJSONStrings(append(dst, `,"to_ip":`...), r.ToIP)
	dst = appendJSONStrings(append(dst, `,"delivery_result":`...), r.DeliveryResult)
	dst = append(dst, `,"delivery_latency":`...)
	if r.DeliveryLatency == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, v := range r.DeliveryLatency {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, v, 10)
		}
		dst = append(dst, ']')
	}
	dst = appendJSONString(append(dst, `,"email_flag":`...), r.EmailFlag)
	return append(dst, '}')
}

// jsonSize is a guess at len(AppendJSON(nil)) that is right unless the
// strings need many escapes: the fixed keys and punctuation, the two
// timestamps, and every string with its quotes and comma.
func (r *Record) jsonSize() int {
	n := 160 + len(r.From) + len(r.To) + len(r.EmailFlag) + 20*len(r.DeliveryLatency)
	for _, ss := range [...][]string{r.FromIP, r.ToIP, r.DeliveryResult} {
		for _, s := range ss {
			n += len(s) + 3
		}
	}
	return n + n/8
}

// appendTime writes t in TimeLayout. A four-digit year is written digit
// by digit, a quarter of what AppendFormat spends finding the layout's
// parts again; any other year is AppendFormat's to render. Either way
// the bytes are digits, '-', ' ' and ':', which need no escaping.
func appendTime(dst []byte, t time.Time) []byte {
	t = t.UTC()
	y, mo, d := t.Date()
	if y < 0 || y > 9999 {
		return t.AppendFormat(dst, TimeLayout)
	}
	h, mi, s := t.Clock()
	two := func(v int) (byte, byte) { return byte('0' + v/10), byte('0' + v%10) }
	y1, y2 := two(y / 100)
	y3, y4 := two(y % 100)
	mo1, mo2 := two(int(mo))
	d1, d2 := two(d)
	h1, h2 := two(h)
	mi1, mi2 := two(mi)
	s1, s2 := two(s)
	return append(dst, y1, y2, y3, y4, '-', mo1, mo2, '-', d1, d2, ' ', h1, h2, ':', mi1, mi2, ':', s1, s2)
}

func appendJSONStrings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, s)
	}
	return append(dst, ']')
}

// jsonPlain marks the ASCII bytes encoding/json copies into a string as
// they are (its htmlSafeSet): everything from space up except the quote,
// the backslash and the three it escapes for HTML's sake.
var jsonPlain = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendJSONString is encoding/json's appendString with escapeHTML set,
// which is how json.Marshal encodes a string field.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonPlain[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default: // the other control bytes, and < > &
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			// Valid in JSON, not in JavaScript; encoding/json escapes
			// them unconditionally.
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	return append(append(dst, s[start:]...), '"')
}
