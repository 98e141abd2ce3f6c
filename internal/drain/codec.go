package drain

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
)

// Binary codec for a Parser: the durable-checkpoint path serializes the
// whole match structure — tree, groups, founding order — so a restored
// parser behaves byte-identically to the original, both for Match (same
// leaf routing, same in-leaf candidate order, so the same tie-breaks)
// and for further Train calls (same nextID, same wildcard state, same
// MaxChildren overflow children). Eight bytes after nextID are reserved
// and written as zero, so snapshots from builds that stored a
// fingerprint there load unchanged, and the other way round. The encoding is
// the repo's usual boring kind: varints, length-prefixed strings, and
// map children emitted in sorted key order so equal parsers marshal to
// equal bytes.

const codecVersion = 1

var errCodec = errors.New("drain: truncated or corrupt parser snapshot")

// MarshalBinary serializes the parser. Safe to call concurrently with
// Match on a frozen parser; otherwise it takes the training mutex.
func (p *Parser) MarshalBinary() ([]byte, error) {
	if !p.frozen {
		p.mu.Lock()
		defer p.mu.Unlock()
	}
	e := &penc{}
	e.u8(codecVersion)
	e.uv(uint64(p.cfg.Depth))
	e.f64(p.cfg.SimThreshold)
	e.uv(uint64(p.cfg.MaxChildren))
	e.uv(uint64(p.nextID))
	e.u64(0) // reserved: a structural fingerprint once lived here

	// Groups in founding order (the order p.groups holds them).
	e.uv(uint64(len(p.groups)))
	for _, g := range p.groups {
		e.uv(uint64(g.ID))
		e.uv(uint64(g.Count))
		e.uv(uint64(len(g.tokens)))
		for _, tok := range g.tokens {
			e.str(tok)
		}
	}
	e.node(p.root)
	return e.buf, nil
}

// UnmarshalParser reconstructs a parser serialized by MarshalBinary.
// The result is unfrozen (trainable), like Clone.
func UnmarshalParser(b []byte) (*Parser, error) {
	d := &pdec{b: b}
	if v := d.u8(); d.err == nil && v != codecVersion {
		return nil, fmt.Errorf("drain: parser snapshot version %d, want %d", v, codecVersion)
	}
	p := &Parser{}
	p.cfg.Depth = int(d.uv())
	p.cfg.SimThreshold = d.f64()
	p.cfg.MaxChildren = int(d.uv())
	p.nextID = int(d.uv())
	d.u64() // reserved

	n := d.count()
	byID := make(map[int]*Group, n)
	p.groups = make([]*Group, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		g := &Group{ID: int(d.uv()), Count: int(d.uv())}
		nt := d.count()
		g.tokens = make([]string, 0, nt)
		for j := 0; j < nt; j++ {
			g.tokens = append(g.tokens, d.str())
		}
		byID[g.ID] = g
		p.groups = append(p.groups, g)
	}
	p.root = d.node(byID)
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("drain: %d trailing bytes after parser snapshot", len(d.b))
	}
	return p, nil
}

func (e *penc) node(n *node) {
	keys := make([]string, 0, len(n.children))
	for k := range n.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.uv(uint64(len(keys)))
	for _, k := range keys {
		e.str(k)
		e.node(n.children[k])
	}
	// Leaf candidates in arrival order: Match scans them in order and
	// keeps the first best on similarity ties, so order is structure.
	e.uv(uint64(len(n.groups)))
	for _, g := range n.groups {
		e.uv(uint64(g.ID))
	}
}

func (d *pdec) node(byID map[int]*Group) *node {
	// Not presized by nc: a chain of nodes each claiming every byte left
	// would size a map per level, quadratic in the input.
	nc := d.count()
	out := &node{children: map[string]*node{}}
	for i := 0; i < nc && d.err == nil; i++ {
		k := d.str()
		out.children[k] = d.node(byID)
	}
	ng := int(d.uv())
	if d.err == nil && uint64(ng) > uint64(len(d.b))+1 {
		d.err = errCodec
	}
	for i := 0; i < ng && d.err == nil; i++ {
		g, ok := byID[int(d.uv())]
		if !ok {
			d.err = errCodec
			return out
		}
		out.groups = append(out.groups, g)
	}
	return out
}

// penc / pdec are the minimal varint writer/reader pair (drain cannot
// reach the analysis package's codec without an import cycle).
type penc struct{ buf []byte }

func (e *penc) u8(v byte)     { e.buf = append(e.buf, v) }
func (e *penc) uv(v uint64)   { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *penc) u64(v uint64)  { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *penc) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *penc) str(s string)  { e.uv(uint64(len(s))); e.buf = append(e.buf, s...) }

type pdec struct {
	b   []byte
	err error
}

func (d *pdec) u8() byte {
	if d.err != nil || len(d.b) < 1 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *pdec) fail() {
	if d.err == nil {
		d.err = errCodec
	}
}

func (d *pdec) uv() uint64 {
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

// count reads an element count, which cannot exceed the bytes left
// (every element takes at least one): a larger claim is corrupt and
// reads as zero, so it sizes no allocation.
func (d *pdec) count() int {
	n := d.uv()
	if d.err == nil && n > uint64(len(d.b)) {
		d.fail()
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

func (d *pdec) u64() uint64 {
	if d.err != nil || len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *pdec) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *pdec) str() string {
	n := d.uv()
	if d.err != nil || uint64(len(d.b)) < n {
		d.fail()
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}
