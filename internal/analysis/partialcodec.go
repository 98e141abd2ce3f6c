package analysis

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"unsafe"
)

// Stable binary codec for partial-aggregate snapshots. The encoding is
// deliberately boring: unsigned varints, zigzag varints, IEEE-754 bits
// for floats, length-prefixed strings, and map entries emitted in
// sorted key order so that equal states marshal to equal bytes no
// matter what insertion order produced them. No reflection, no
// third-party dependencies, and every compound value is
// length-prefixed so decoders can reject truncated input early.

type enc struct {
	buf []byte
}

func (e *enc) u64(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

func (e *enc) i64(v int64) {
	e.buf = binary.AppendVarint(e.buf, v)
}

func (e *enc) intv(v int) { e.i64(int64(v)) }

func (e *enc) f64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

func (e *enc) str(s string) {
	e.u64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *enc) boolv(b bool) {
	if b {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

func (e *enc) bytes(b []byte) {
	e.u64(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

var errTruncated = errors.New("analysis: truncated partial snapshot")

type dec struct {
	b   []byte
	err error
}

func (d *dec) fail() {
	if d.err == nil {
		d.err = errTruncated
	}
}

func (d *dec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) i64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) intv() int { return int(d.i64()) }

func (d *dec) f64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

func (d *dec) str() string {
	n := d.u64()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.b)) < n {
		d.fail()
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// strView is str without the copy: the string views d's input, so it
// is valid only as long as the caller keeps that input unchanged.
func (d *dec) strView() string {
	n := d.u64()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.b)) < n {
		d.fail()
		return ""
	}
	s := unsafe.String(unsafe.SliceData(d.b), int(n))
	d.b = d.b[n:]
	return s
}

func (d *dec) u8() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 1 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *dec) boolv() bool { return d.u8() != 0 }

func (d *dec) bytes() []byte {
	n := d.u64()
	if d.err != nil {
		return nil
	}
	if uint64(len(d.b)) < n {
		d.fail()
		return nil
	}
	b := d.b[:n:n]
	d.b = d.b[n:]
	return b
}

// count guards slice/map allocations against hostile length prefixes:
// a declared element count can never exceed the remaining bytes.
func (d *dec) count() int {
	n := d.u64()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.b)) {
		d.fail()
		return 0
	}
	return int(n)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedIntKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func (e *enc) strIntMap(m map[string]int) {
	e.u64(uint64(len(m)))
	for _, k := range sortedKeys(m) {
		e.str(k)
		e.intv(m[k])
	}
}

func (d *dec) strIntMap() map[string]int {
	n := d.count()
	m := make(map[string]int, n)
	for i := 0; i < n; i++ {
		k := d.str()
		m[k] = d.intv()
	}
	return m
}

func (e *enc) strSet(m map[string]bool) {
	e.u64(uint64(len(m)))
	for _, k := range sortedKeys(m) {
		e.str(k)
	}
}

func (d *dec) strSet() map[string]bool {
	n := d.count()
	m := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		m[d.str()] = true
	}
	return m
}

func (e *enc) strList(list []string) {
	e.u64(uint64(len(list)))
	for _, s := range list {
		e.str(s)
	}
}

func (d *dec) strList() []string {
	n := d.count()
	list := make([]string, 0, n)
	for i := 0; i < n; i++ {
		list = append(list, d.str())
	}
	return list
}

func (e *enc) f64List(list []float64) {
	e.u64(uint64(len(list)))
	for _, v := range list {
		e.f64(v)
	}
}

func (d *dec) f64List() []float64 {
	n := d.count()
	if n == 0 {
		return nil
	}
	list := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		list = append(list, d.f64())
	}
	return list
}

func (e *enc) i64List(list []int64) {
	e.u64(uint64(len(list)))
	for _, v := range list {
		e.i64(v)
	}
}

func (d *dec) i64List() []int64 {
	n := d.count()
	if n == 0 {
		return nil
	}
	list := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		list = append(list, d.i64())
	}
	return list
}

// checkVersion reads and validates a one-byte collector version.
func (d *dec) checkVersion(name string, want byte) {
	if d.err != nil {
		return
	}
	if len(d.b) < 1 {
		d.fail()
		return
	}
	got := d.b[0]
	d.b = d.b[1:]
	if got != want {
		d.err = fmt.Errorf("analysis: %s partial version %d, want %d", name, got, want)
	}
}

func (e *enc) version(v byte) {
	e.buf = append(e.buf, v)
}
