package drain

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
)

func trainedParser(t *testing.T, n int) *Parser {
	t.Helper()
	p := New(DefaultConfig())
	for i := 0; i < n; i++ {
		switch i % 5 {
		case 0:
			p.Train(fmt.Sprintf("550 5.1.1 user u%d not found", i))
		case 1:
			p.Train(fmt.Sprintf("421 4.7.0 host %d.%d.%d.%d greylisted try later", i%250, i%200, i%100, i%50))
		case 2:
			p.Train("552 5.2.2 mailbox full quota exceeded")
		case 3:
			p.Train(fmt.Sprintf("451 temporary failure id=%d requeued", i))
		case 4:
			p.Train(fmt.Sprintf("550 listed at zen.spamhaus.org ip %d.0.0.%d", i%9, i%7))
		}
	}
	return p
}

// Round-tripping through the codec must preserve everything Match and
// future Train calls observe: group order and templates, and the leaf
// routing structure.
func TestCodecRoundTrip(t *testing.T) {
	p := trainedParser(t, 500)
	blob, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	q, err := UnmarshalParser(blob)
	if err != nil {
		t.Fatal(err)
	}
	if q.NumGroups() != p.NumGroups() {
		t.Fatalf("groups %d != %d", q.NumGroups(), p.NumGroups())
	}
	pg, qg := p.Groups(), q.Groups()
	for i := range pg {
		if pg[i].ID != qg[i].ID || pg[i].Count != qg[i].Count || pg[i].Template() != qg[i].Template() {
			t.Fatalf("group %d differs: %+v vs %+v", i, pg[i], qg[i])
		}
	}
	// Matching behaviour is identical for lines the parser has seen and
	// lines it has not.
	probes := []string{
		"550 5.1.1 user zz9 not found",
		"552 5.2.2 mailbox full quota exceeded",
		"421 4.7.0 host 9.9.9.9 greylisted try later",
		"never seen anything like this message before at all",
	}
	for _, line := range probes {
		a, b := p.Match(line), q.Match(line)
		if (a == nil) != (b == nil) {
			t.Fatalf("match presence differs for %q", line)
		}
		if a != nil && a.ID != b.ID {
			t.Fatalf("match group differs for %q: %d vs %d", line, a.ID, b.ID)
		}
	}
}

// A restored parser must keep training exactly like the original: same
// group assignment and identical re-marshal
// bytes — the property byte-identical crash recovery rests on.
func TestCodecTrainAfterRestore(t *testing.T) {
	p := trainedParser(t, 300)
	blob, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	q, err := UnmarshalParser(blob)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		line := fmt.Sprintf("554 5.7.1 relay access denied from host%d", i)
		gp, gq := p.Train(line), q.Train(line)
		if gp.ID != gq.ID {
			t.Fatalf("divergence at line %d: group %d vs %d", i, gp.ID, gq.ID)
		}
	}
	bp, _ := p.MarshalBinary()
	bq, _ := q.MarshalBinary()
	if !bytes.Equal(bp, bq) {
		t.Fatal("re-marshal bytes differ after identical training")
	}
}

// Marshal must be deterministic (map iteration order must not leak into
// the bytes) and agree between a parser and its Clone.
func TestCodecDeterministic(t *testing.T) {
	p := trainedParser(t, 400)
	a, _ := p.MarshalBinary()
	for i := 0; i < 5; i++ {
		b, _ := p.MarshalBinary()
		if !bytes.Equal(a, b) {
			t.Fatal("marshal not deterministic")
		}
	}
	c, _ := p.Clone().MarshalBinary()
	if !bytes.Equal(a, c) {
		t.Fatal("clone marshals differently")
	}
	// A frozen parser serializes identically too (and without locking).
	f := p.Clone()
	f.Freeze()
	fb, _ := f.MarshalBinary()
	if !bytes.Equal(a, fb) {
		t.Fatal("frozen parser marshals differently")
	}
}

// Truncated or corrupted snapshots must error, never panic or return a
// half-built parser.
func TestCodecHostileInput(t *testing.T) {
	p := trainedParser(t, 100)
	blob, _ := p.MarshalBinary()
	for cut := 0; cut < len(blob); cut += 7 {
		if _, err := UnmarshalParser(blob[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := UnmarshalParser(append(append([]byte(nil), blob...), 0x01)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	bad := append([]byte(nil), blob...)
	bad[0] = 99
	if _, err := UnmarshalParser(bad); err == nil {
		t.Fatal("bad version accepted")
	}
}

// TestCodecReservedBytes: the eight bytes after nextID are written as
// zero and ignored on read, so a snapshot whose writer stored a
// structural fingerprint there restores to the same parser, and
// re-marshals to the zero-filled bytes this build writes.
func TestCodecReservedBytes(t *testing.T) {
	p := trainedParser(t, 300)
	blob, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	e := &penc{}
	e.u8(codecVersion)
	e.uv(uint64(p.cfg.Depth))
	e.f64(p.cfg.SimThreshold)
	e.uv(uint64(p.cfg.MaxChildren))
	e.uv(uint64(p.nextID))
	at := len(e.buf)
	if !bytes.Equal(blob[:at], e.buf) || !bytes.Equal(blob[at:at+8], make([]byte, 8)) {
		t.Fatalf("reserved bytes at %d are %x, want zero", at, blob[at:at+8])
	}
	foreign := bytes.Clone(blob)
	copy(foreign[at:], []byte{0x25, 0x23, 0x22, 0x84, 0xe4, 0x9c, 0xf2, 0xcb})
	q, err := UnmarshalParser(foreign)
	if err != nil {
		t.Fatal(err)
	}
	back, _ := q.MarshalBinary()
	if !bytes.Equal(back, blob) {
		t.Fatal("a snapshot with a fingerprint in the reserved bytes restores to a different parser")
	}
	for _, line := range []string{"550 5.1.1 user zz9 not found", "never seen anything like this"} {
		if a, b := p.Match(line), q.Match(line); (a == nil) != (b == nil) || a != nil && a.ID != b.ID {
			t.Fatalf("match differs for %q", line)
		}
	}
}

// TestCodecCountsDoNotSizeAllocations: a count a snapshot cannot back
// with bytes sizes nothing, and no count sizes memory per tree level.
// A 23-byte snapshot whose group count claims 797,849 groups, and a
// chain of 2,000 nodes each claiming as many children as bytes are
// left, must both fail within a fixed multiple of their size.
func TestCodecCountsDoNotSizeAllocations(t *testing.T) {
	header := func() *penc {
		e := &penc{}
		e.u8(codecVersion)
		e.uv(4)
		e.f64(0.4)
		e.uv(100)
		e.uv(0)
		e.u64(0)
		return e
	}
	groups := header()
	groups.uv(797_849)

	chain := header()
	chain.uv(0) // no groups
	const depth = 2000
	for i := 0; i < depth; i++ {
		chain.uv(uint64(depth - i)) // no more than the bytes left: each level takes two or three
		chain.str("")
	}

	for name, blob := range map[string][]byte{"group count": groups.buf, "node chain": chain.buf} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := UnmarshalParser(blob)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: corrupt snapshot accepted", name)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1024*uint64(len(blob))+64<<10 {
			t.Errorf("%s: decoding %d bytes allocated %d", name, len(blob), n)
		}
	}
}
