package faultinject

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"time"
)

func TestParseSpecRoundTrip(t *testing.T) {
	sp, err := ParseSpec("seed=7,torn=0.05,truncgz=0.1,corrupt=0.02,loris=0.01,lorispause=250ms,dup=0.1,stall=500us")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Seed != 7 || sp.Torn != 0.05 || sp.TruncGzip != 0.1 || sp.Corrupt != 0.02 ||
		sp.Loris != 0.01 || sp.LorisPause != 250*time.Millisecond || sp.Dup != 0.1 ||
		sp.Stall != 500*time.Microsecond {
		t.Fatalf("bad parse: %+v", sp)
	}
	if !sp.Active() {
		t.Fatal("spec should be active")
	}
	// String must re-parse to the same spec.
	sp2, err := ParseSpec(sp.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", sp.String(), err)
	}
	if *sp2 != *sp {
		t.Fatalf("round trip: %+v != %+v", sp2, sp)
	}
}

func TestParseSpecDefaultsAndErrors(t *testing.T) {
	sp, err := ParseSpec("")
	if err != nil || sp.Active() {
		t.Fatalf("empty spec: %+v, %v", sp, err)
	}
	sp, err = ParseSpec("loris=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if sp.LorisPause != 200*time.Millisecond {
		t.Fatalf("lorispause default: %v", sp.LorisPause)
	}
	for _, bad := range []string{"torn=2", "torn=-1", "seed=x", "stall=-1s", "wat=1", "torn"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q): want error", bad)
		}
	}
}

func TestPlansDeterministic(t *testing.T) {
	spec := &Spec{Seed: 11, Torn: 0.3, Corrupt: 0.3, Loris: 0.2, LorisPause: time.Millisecond, Dup: 0.25, TruncGzip: 0.2}
	a, b := New(spec), New(spec)
	anyFault := false
	for i := 0; i < 200; i++ {
		pa, pb := a.NextPlan(), b.NextPlan()
		pa.in, pb.in = nil, nil // compare draws only
		if pa != pb {
			t.Fatalf("plan %d diverged: %+v vs %+v", i, pa, pb)
		}
		if pa.Torn || pa.Corrupt || pa.Loris || pa.Dup || pa.TruncGzip {
			anyFault = true
		}
	}
	if !anyFault {
		t.Fatal("no faults drawn in 200 plans at these probabilities")
	}
	// A different seed must draw a different schedule.
	c := New(&Spec{Seed: 12, Torn: 0.3, Corrupt: 0.3, Loris: 0.2, LorisPause: time.Millisecond, Dup: 0.25, TruncGzip: 0.2})
	diverged := false
	a2 := New(spec)
	for i := 0; i < 200; i++ {
		pa, pc := a2.NextPlan(), c.NextPlan()
		pa.in, pc.in = nil, nil
		if pa != pc {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("seeds 11 and 12 drew identical schedules")
	}
}

func TestTornReaderCutsAndCounts(t *testing.T) {
	in := New(&Spec{Seed: 1, Torn: 1})
	p := in.NextPlan()
	if !p.Torn {
		t.Fatal("torn=1 must always fire")
	}
	p.TornAfter = 10
	src := strings.NewReader(strings.Repeat("x", 100))
	r := p.WrapRaw(src)
	got, err := io.ReadAll(r)
	if len(got) != 10 {
		t.Fatalf("read %d bytes, want 10", len(got))
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if in.Counts()[KindTorn] != 1 {
		t.Fatalf("counts: %v", in.Counts())
	}
	// A stream shorter than the cut point is untouched.
	p2 := in.NextPlan()
	p2.TornAfter = 1000
	got, err = io.ReadAll(p2.WrapRaw(strings.NewReader("short")))
	if err != nil || string(got) != "short" {
		t.Fatalf("short stream: %q, %v", got, err)
	}
}

func TestCorruptReaderFlipsExactlyOneByte(t *testing.T) {
	in := New(&Spec{Seed: 1, Corrupt: 1})
	p := in.NextPlan()
	p.CorruptAt = 5
	orig := []byte("hello, world: a perfectly fine record\n")
	got, err := io.ReadAll(p.WrapDecoded(bytes.NewReader(orig)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(orig) {
		t.Fatalf("length changed: %d != %d", len(got), len(orig))
	}
	diff := 0
	for i := range got {
		if got[i] != orig[i] {
			diff++
			if i != 5 {
				t.Fatalf("byte %d changed, want only 5", i)
			}
			if got[i] == '\n' {
				t.Fatal("corruption must not add line breaks")
			}
		}
	}
	if diff != 1 {
		t.Fatalf("%d bytes changed, want 1", diff)
	}
	if in.Counts()[KindCorrupt] != 1 {
		t.Fatalf("counts: %v", in.Counts())
	}
	// Corruption past EOF fires nothing.
	p2 := in.NextPlan()
	p2.CorruptAt = 1 << 20
	if got, _ := io.ReadAll(p2.WrapDecoded(strings.NewReader("tiny"))); string(got) != "tiny" {
		t.Fatalf("short stream corrupted: %q", got)
	}
}

func TestLorisReaderTricklesSmallChunks(t *testing.T) {
	in := New(&Spec{Seed: 1, Loris: 1, LorisPause: time.Microsecond})
	p := in.NextPlan()
	r := p.WrapRaw(strings.NewReader(strings.Repeat("y", 300)))
	buf := make([]byte, 256)
	n, err := r.Read(buf)
	if err != nil || n > 64 {
		t.Fatalf("first read %d bytes (err %v), want <= 64", n, err)
	}
	rest, err := io.ReadAll(r)
	if err != nil || n+len(rest) != 300 {
		t.Fatalf("total %d bytes (err %v), want 300", n+len(rest), err)
	}
	if in.Counts()[KindLoris] != 1 {
		t.Fatalf("counts: %v", in.Counts())
	}
}

func TestInactiveInjectorIsTransparent(t *testing.T) {
	in := New(nil)
	p := in.NextPlan()
	src := strings.NewReader("pass through")
	if r := p.WrapRaw(src); r != io.Reader(src) {
		t.Fatal("WrapRaw must be identity when inactive")
	}
	if r := p.WrapDecoded(src); r != io.Reader(src) {
		t.Fatal("WrapDecoded must be identity when inactive")
	}
	if len(in.Counts()) != 0 || in.ConsumerStall() != 0 {
		t.Fatalf("inactive injector fired: %v", in.Counts())
	}
}

func TestCountsByKind(t *testing.T) {
	in := New(&Spec{Seed: 1, Torn: 1, Corrupt: 1})
	p := in.NextPlan()
	p.TornAfter, p.CorruptAt = 1, 0
	io.ReadAll(p.WrapDecoded(p.WrapRaw(strings.NewReader("xxxx"))))
	if m := in.Counts(); m[KindCorrupt] != 1 || m[KindTorn] != 1 {
		t.Fatalf("Counts: %v", m)
	}
	var total uint64
	for _, n := range in.Counts() {
		total += n
	}
	if total != 2 {
		t.Fatalf("sum over Counts: %d", total)
	}
}
