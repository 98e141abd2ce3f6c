package analysis

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/ndr"
	"repro/internal/typo"
)

// gatherInOrder is GatherPartials with the coordinator's merge order
// spelled out: both rounds decode and merge the shards' bytes in order.
func gatherInOrder(t *testing.T, shards []*Analysis, env *Environment, order []int) *PartialSet {
	t.Helper()
	merge := func(blobs [][]byte) *PartialSet {
		ordered := make([][]byte, 0, len(order))
		for _, i := range order {
			ordered = append(ordered, blobs[i])
		}
		ps, err := mergeBlobSets(ordered, env)
		if err != nil {
			t.Fatal(err)
		}
		return ps
	}
	blobs := make([][]byte, len(shards))
	for i, a := range shards {
		blobs[i] = a.BouncedPartials().Marshal()
	}
	merged := merge(blobs)
	scope, err := merged.MarshalScope()
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range shards {
		ps, err := a.ScopedPartials(scope)
		if err != nil {
			t.Fatal(err)
		}
		blobs[i] = ps.Marshal()
	}
	if err := merged.Complete(merge(blobs)); err != nil {
		t.Fatal(err)
	}
	return merged
}

// wholeMerge is the reference the two rounds are held to: every
// shard's Partials() through the wire codec, merged.
func wholeMerge(t *testing.T, shards []*Analysis, env *Environment) *PartialSet {
	t.Helper()
	blobs := make([][]byte, len(shards))
	for i, a := range shards {
		blobs[i] = a.Partials().Marshal()
	}
	ps, err := mergeBlobSets(blobs, env)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// checkTwoRounds holds a two-round gather's detections and Figure 7 to
// the merged whole partials over the same shards and, when the shards
// are a substream split, to the unsharded Analysis.
func checkTwoRounds(t *testing.T, label string, got *PartialSet, shards []*Analysis, env *Environment, whole *Analysis) {
	t.Helper()
	det := got.Detect()
	fig := got.Durations(det)
	ref := wholeMerge(t, shards, env)
	if want := ref.Detect(); !reflect.DeepEqual(det, want) {
		t.Errorf("%s: two-round detections differ from the whole partials':\n got %+v\nwant %+v", label, det, want)
	}
	if want := ref.Durations(ref.Detect()); !reflect.DeepEqual(fig, want) {
		t.Errorf("%s: two-round Figure 7 differs from the whole partials':\n got %+v\nwant %+v", label, fig, want)
	}
	if whole == nil {
		return
	}
	if want := whole.Detect(); !reflect.DeepEqual(det, want) {
		t.Errorf("%s: two-round detections differ from one node's:\n got %+v\nwant %+v", label, det, want)
	}
	if want := whole.Durations(whole.Detect()); !reflect.DeepEqual(fig, want) {
		t.Errorf("%s: two-round Figure 7 differs from one node's:\n got %+v\nwant %+v", label, fig, want)
	}
}

// TestPartialTwoRoundsMatchWhole: for 1, 2, 3 and 16 substream shards,
// without an environment and with the leak corpus (so recipient sets
// and bulk counts travel), and for every merge order of 3, the two
// rounds resolve what the whole partials and one node resolve.
func TestPartialTwoRoundsMatchWhole(t *testing.T) {
	for _, corpus := range []struct {
		name   string
		seed   uint64
		emails int
		env    bool
	}{{"no-env", 11, 6000, false}, {"env", 23, 12000, true}} {
		records, env := generated(corpus.seed, corpus.emails)
		if !corpus.env {
			env = nil
		}
		whole := New(records, env)
		for _, n := range []int{1, 2, 3, 16} {
			parts := partitionCorpus(records, n)
			shards := make([]*Analysis, n)
			for i, part := range parts {
				shards[i] = New(part, env)
			}
			got, err := GatherPartials(shards, env)
			if err != nil {
				t.Fatal(err)
			}
			checkTwoRounds(t, fmt.Sprintf("%s shards=%d", corpus.name, n), got, shards, env, whole)
			if n != 3 {
				continue
			}
			for _, order := range [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
				got := gatherInOrder(t, shards, env, order)
				checkTwoRounds(t, fmt.Sprintf("%s order=%v", corpus.name, order), got, shards, env, whole)
			}
		}
		if det := whole.Detect(); corpus.env && len(det.BulkSpamSenders) == 0 {
			t.Errorf("%s: no bulk sender, so no recipient set was read", corpus.name)
		}
	}
}

// TestPartialTwoRoundsCrossShardEdges pins the edges TestBouncedFirstEdges
// pins on one node where the bounce and the record it makes matter sit
// on different shards of two.
func TestPartialTwoRoundsCrossShardEdges(t *testing.T) {
	ok := "250 2.0.0 OK"
	out := testCorpus()
	// on adds a record on the given shard of two: its start (and end)
	// move by whole seconds until the substream it hashes to is that
	// shard's.
	on := func(shard int, from, to string, day int, results ...string) {
		r := rec(from, to, t0.AddDate(0, 0, day), results...)
		for OwnerOf(&r, 2) != shard {
			r.StartTime, r.EndTime = r.StartTime.Add(time.Second), r.EndTime.Add(time.Second)
		}
		out = append(out, r)
	}
	const a, b = 0, 1

	// 29 T8s on A and the 30th on B cross the threshold only merged;
	// 28 + 1 stay below it. The campaign's hit was delivered on B.
	on(b, "bot@g30.com", "guess0@v30.com", 1, ok)
	on(a, "bot@g29.com", "guess0@v29.com", 1, ok)
	for i := 0; i < 30; i++ {
		shard := a
		if i == 29 {
			shard = b
		}
		addr := fmt.Sprintf("guess%d@v30.com", i+1)
		on(shard, "bot@g30.com", addr, 2, renderT(ndr.T8NoSuchUser, addr))
		if i < 29 {
			addr = fmt.Sprintf("guess%d@v29.com", i+1)
			on(shard, "bot@g29.com", addr, 2, renderT(ndr.T8NoSuchUser, addr))
		}
	}

	// A working contact delivered on A, its typo's T8 bounce on B.
	on(a, "early@s.com", "carol.jones@ok.com", 3, ok)
	on(b, "early@s.com", "carol.jnes@ok.com", 4, renderT(ndr.T8NoSuchUser, "carol.jnes@ok.com"))

	// Only-T2 on A, resolved on B; never.example stays unresolved.
	for i := 0; i < 5; i++ {
		on(a, "a@s.com", "bob@late.example", 50+i, renderT(ndr.T2ReceiverDNS, "bob@late.example"))
		on(a, "a@s.com", "bob@never.example", 50+i, renderT(ndr.T2ReceiverDNS, "bob@never.example"))
	}
	on(b, "a@s.com", "bob@late.example", 60, ok)

	// T3, T2 and T9 bad events on A, the good events closing them on B.
	on(a, "a@authfix.com", "x@strict.com", 70, renderT(ndr.T3AuthFail, "x@strict.com"))
	on(b, "a@authfix.com", "x@strict.com", 72, ok)
	on(a, "a@s.com", "u@mxfix.com", 70, renderT(ndr.T2ReceiverDNS, "u@mxfix.com"))
	on(b, "a@s.com", "u@mxfix.com", 71, ok)
	on(a, "a@s.com", "softfull@ok.com", 100, renderT(ndr.T9MailboxFull, "softfull@ok.com"))
	on(b, "a@s.com", "softfull@ok.com", 110, ok)

	parts := partitionCorpus(out, 2)
	shards := []*Analysis{New(parts[a], nil), New(parts[b], nil)}
	got, err := GatherPartials(shards, nil)
	if err != nil {
		t.Fatal(err)
	}
	whole := New(out, nil)
	checkTwoRounds(t, "edges", got, shards, nil, whole)

	det := got.Detect()
	fig := got.Durations(det)
	if g := det.GuessingSenders; len(g) != 1 || g["g30.com"] != "v30.com" {
		t.Errorf("GuessingSenders = %v, want only g30.com -> v30.com", g)
	}
	if det.GuessTargets != 31 || det.GuessHits != 1 || det.GuessDelivered != 1 {
		t.Errorf("guess targets/hits/delivered = %d/%d/%d, want 31/1/1", det.GuessTargets, det.GuessHits, det.GuessDelivered)
	}
	if det.UsernameTypos["carol.jnes@ok.com"] == typo.KindNone {
		t.Errorf("carol.jnes@ok.com is not a verified username typo: %v", det.UsernameTypos)
	}
	never := strings.Join(det.NeverResolved, ",")
	if strings.Contains(never, "late.example") || !strings.Contains(never, "never.example") {
		t.Errorf("NeverResolved = %v, want never.example and not late.example", det.NeverResolved)
	}
	for name, s := range map[string]EpisodeStats{"auth": fig.AuthDKIMSPF, "mx": fig.MXRecords, "full": fig.MailboxFull} {
		if len(s.Durations) == 0 {
			t.Errorf("%s: no episode closed by a good event on the other shard: %+v", name, s)
		}
	}
}

// TestPartialPartsDoNotMix: a round-1 set merges only with round-1
// sets, is completed only by a round-2 set, renders only once
// completed, and the completed set merges with nothing.
func TestPartialPartsDoNotMix(t *testing.T) {
	a := New(testCorpus(), nil)
	bounced, whole := a.BouncedPartials(), a.Partials()
	if err := bounced.Merge(whole); err == nil {
		t.Error("a round-1 set merged a whole one")
	}
	if err := whole.Merge(a.BouncedPartials()); err == nil {
		t.Error("a whole set merged a round-1 one")
	}
	if _, err := whole.MarshalScope(); err == nil {
		t.Error("a whole set has a scope")
	}
	if err := bounced.Renderable(); err == nil {
		t.Error("a round-1 set renders")
	}
	scope, err := bounced.MarshalScope()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.ScopedPartials(append(scope, 0)); err == nil {
		t.Error("a scope with a trailing byte decoded")
	}
	scoped, err := a.ScopedPartials(scope)
	if err != nil {
		t.Fatal(err)
	}
	if err := scoped.Renderable(); err == nil {
		t.Error("a round-2 set renders")
	}
	if err := bounced.Complete(whole); err == nil {
		t.Error("a whole set completed a round-1 one")
	}
	if err := bounced.Complete(scoped); err != nil {
		t.Fatal(err)
	}
	if err := bounced.Renderable(); err != nil {
		t.Error(err)
	}
	if err := bounced.Merge(bounced); err == nil {
		t.Error("a completed set merged")
	}
	rt, err := UnmarshalPartialSet(bounced.Marshal(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rt.Marshal(), bounced.Marshal()) || rt.Renderable() != nil {
		t.Error("a completed set does not round-trip as one")
	}
}

// TestUnmarshalPartialRefusesOtherVersions: the partial a version-1
// codec wrote (testdata) is refused naming both versions, and a round-1
// set, read the way a version-1 codec reads its envelope, is refused by
// it the same way — never merged into a report.
func TestUnmarshalPartialRefusesOtherVersions(t *testing.T) {
	v1, err := os.ReadFile("testdata/partialset_v1.bin")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalPartialSet(v1, nil); err == nil || !strings.Contains(err.Error(), "version 1, want 2") {
		t.Fatalf("version-1 partial: err %v, want one naming version 1 and 2", err)
	}
	round1 := New(testCorpus(), nil).BouncedPartials().Marshal()
	d := dec{b: round1[len(partialMagic):]}
	d.checkVersion("partialset", 1)
	if d.err == nil || !strings.Contains(d.err.Error(), "version 2, want 1") {
		t.Fatalf("a version-1 reader of a round-1 set: err %v, want one naming version 2 and 1", d.err)
	}
}
