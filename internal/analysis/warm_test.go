package analysis

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ebrc"
	"repro/internal/ndr"
)

// TestTrainingSegmentsStable: the training set walks the labeled
// groups in ID order, so laying it out twice from one pipeline gives
// the same segments — what FinishWarm compares to keep a classifier.
func TestTrainingSegmentsStable(t *testing.T) {
	records, _ := generated(11, 6000)
	inc := NewIncremental(DefaultPipelineConfig())
	inc.AddBatch(records)
	trained := 0
	for s, p := range inc.Snapshot(nil).Pipeline.Shards {
		if p.Classifier == nil {
			continue
		}
		trained++
		first := p.trainingSegments()
		for i := 0; i < 5; i++ {
			if segs := p.trainingSegments(); !slices.Equal(segs, first) {
				t.Fatalf("substream %d: training segments %v, then %v", s, first, segs)
			}
		}
	}
	if trained < NumStreams/2 {
		t.Fatalf("only %d of %d substreams trained a classifier", trained, NumStreams)
	}
}

// TestWarmSnapshotReusesUntouchedClassifiers: a record adds to one
// substream, so every other substream's next snapshot finds the same
// training set and keeps the classifier it had.
func TestWarmSnapshotReusesUntouchedClassifiers(t *testing.T) {
	records, _ := generated(11, 6000)
	n := len(records) - 1
	inc := NewIncremental(DefaultPipelineConfig())
	inc.AddBatch(records[:n])
	before := inc.Snapshot(nil).Pipeline.Shards
	inc.Add(&records[n])
	after := inc.Snapshot(nil).Pipeline.Shards
	touched := StreamOf(&records[n])
	kept := 0
	for s := range before {
		if s == touched || before[s].Classifier == nil {
			continue
		}
		if after[s].Classifier != before[s].Classifier {
			t.Errorf("substream %d retrained though the record went to substream %d", s, touched)
		}
		kept++
	}
	if kept < NumStreams/2 {
		t.Fatalf("only %d substreams had a classifier to keep", kept)
	}
}

// TestWarmSnapshotMatchesCold: a snapshot finished warm against the
// previous one — classifiers and template votes reused where the
// training set did not move, the EBRC rebuilt from carried counts where
// it did, clean verdicts copied and their fold carried — equals, byte
// for byte, a cold snapshot of a fresh accumulator over the same records
// and the batch reference (batchAnalysis), which carries nothing and
// walks every record: verdicts, round-1 set and whole set, with an
// environment so the geo collectors fold too, and what the carried
// clean index answers — detections, Figure 7 and the round-2 set under
// the warm snapshot's scope. Its EBRCs predict what ebrc.Train's fit on
// the same training sets does. The history runs +1, +5, +20 and +1,000
// records, then restores the accumulator from a checkpoint of it
// mid-history and goes on warm from there.
func TestWarmSnapshotMatchesCold(t *testing.T) {
	records, env := generated(11, 6000)
	cfg := DefaultPipelineConfig()
	steps := []int{1, 5, 20, 1000}
	added := len(records) - 2*(1+5+20+1000)
	if added < len(records)/2 {
		t.Fatalf("corpus of %d records too small", len(records))
	}
	inc := NewIncremental(cfg)
	inc.AddBatch(records[:added])
	inc.Snapshot(env)
	check := func(when string, warm *Analysis) {
		t.Helper()
		for s, p := range warm.Pipeline.Shards {
			samples := p.trainingSamples()
			if len(samples) == 0 {
				if p.Classifier != nil {
					t.Fatalf("%s: substream %d has a classifier and no training set", when, s)
				}
				continue
			}
			want := ebrc.Train(samples)
			for _, sm := range samples {
				gt, gm := p.Classifier.Predict(sm.Text)
				wt, wm := want.Predict(sm.Text)
				if gt != wt || gm != wm {
					t.Fatalf("%s: substream %d: the carried EBRC predicts %v %v for %q, ebrc.Train's %v %v", when, s, gt, gm, sm.Text, wt, wm)
				}
			}
		}
		fresh := NewIncremental(cfg)
		fresh.AddBatch(records[:added])
		scope, err := warm.BouncedPartials().MarshalScope()
		if err != nil {
			t.Fatal(err)
		}
		got := productAnswers(t, warm, scope)
		for name, want := range map[string]answers{
			"cold snapshot":   productAnswers(t, fresh.Snapshot(env), scope),
			"batch reference": batchAnswers(t, batchAnalysis(records[:added], env), scope),
		} {
			if d := got.diff(want); d != "" {
				t.Fatalf("%s: warm %s differ from the %s's", when, d, name)
			}
		}
	}
	for round := 0; round < 2; round++ {
		for _, k := range steps {
			inc.AddBatch(records[added : added+k])
			added += k
			check(fmt.Sprintf("round %d, +%d records", round, k), inc.Snapshot(env))
		}
		if round == 0 {
			blob, err := inc.CaptureState().MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if inc, err = RestoreIncremental(blob); err != nil {
				t.Fatal(err)
			}
			check("restored", inc.Snapshot(env))
		}
	}
}

// TestWarmSnapshotCarriesCleanRecords: a warm snapshot copies, rather
// than reclassifies, the verdicts of the records whose every line is a
// 2xx — a mark put on one in the previous snapshot's slice shows
// through, where a verdict made again would not carry it — and hands
// its Analysis a carried fold, of every record's facts and the clean
// records' labels, and a clean index, that the next snapshot leaves as
// they were, even while it extends them. A snapshot of another
// environment, or after DropCarried, starts over.
func TestWarmSnapshotCarriesCleanRecords(t *testing.T) {
	records, env := generated(11, 6000)
	n := len(records) - 50
	inc := NewIncremental(DefaultPipelineConfig())
	inc.AddBatch(records[:n])
	before := inc.Snapshot(env)
	frozen := before.carried.Marshal()
	const mark = dataset.Degree(99)
	carried, dirty := 0, 0
	for i := range n {
		if clean(&records[i]) {
			before.Classified[i].Degree = mark
			carried++
		} else {
			dirty++
		}
	}
	if carried == 0 || dirty == 0 {
		t.Fatalf("degenerate corpus: %d clean records, %d others", carried, dirty)
	}
	// While the next snapshot extends the clean index, the previous
	// snapshot's study answers from it — Detect and Durations of an
	// Analysis over before's records and carried state, made afresh,
	// and its round-2 set — what it answered before.
	det := before.Detect()
	fig := before.Durations(det)
	scope, err := before.BouncedPartials().MarshalScope()
	if err != nil {
		t.Fatal(err)
	}
	scoped, err := before.ScopedPartials(scope)
	if err != nil {
		t.Fatal(err)
	}
	again := func() *Analysis {
		a := assemble(before.Records, before.Classified, before.Pipeline, before.counts, before.Env)
		a.carried, a.dirty, a.index = before.carried, before.dirty, before.index
		return a
	}
	done := make(chan error)
	go func() {
		a := again()
		if d := a.Detect(); !reflect.DeepEqual(d, det) || !reflect.DeepEqual(a.Durations(d), fig) {
			done <- fmt.Errorf("detections or Figure 7 moved while the next snapshot was taken")
			return
		}
		ps, err := before.ScopedPartials(scope)
		if err == nil && !bytes.Equal(ps.Marshal(), scoped.Marshal()) {
			err = fmt.Errorf("the round-2 set moved while the next snapshot was taken")
		}
		done <- err
	}()
	inc.AddBatch(records[n:])
	after := inc.Snapshot(env)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	a := again()
	if d := a.Detect(); !reflect.DeepEqual(d, det) || !reflect.DeepEqual(a.Durations(d), fig) {
		t.Fatal("the next snapshot changed the detections or Figure 7 a study was handed")
	}
	if ps, err := before.ScopedPartials(scope); err != nil || !bytes.Equal(ps.Marshal(), scoped.Marshal()) {
		t.Fatalf("the next snapshot changed the round-2 set a study was handed (%v)", err)
	}
	for i := range n {
		if got := after.Classified[i].Degree == mark; got != clean(&records[i]) {
			t.Fatalf("record %d (clean: %v): carried %v", i, clean(&records[i]), got)
		}
	}
	if !bytes.Equal(before.carried.Marshal(), frozen) {
		t.Fatal("the next snapshot changed the fold a study was handed")
	}
	if before.carried.Total != n || after.carried == before.carried || after.carried.Total != len(records) {
		t.Fatalf("the carried folds hold %d, then %d records, want %d, then %d", before.carried.Total, after.carried.Total, n, len(records))
	}
	if after.index == before.index {
		t.Fatal("the next snapshot did not extend the clean index")
	}
	first := slices.IndexFunc(records, func(r dataset.Record) bool { return clean(&r) })
	other := inc.Snapshot(nil)
	if other.carried == after.carried || other.carried.Total != after.carried.Total || other.Classified[first].Degree == mark {
		t.Fatal("a snapshot without the environment reused what one with it made")
	}
	other.Classified[first].Degree = mark
	inc.DropCarried()
	cold := inc.Snapshot(nil)
	if cold.carried == other.carried || cold.Classified[first].Degree == mark {
		t.Fatal("a snapshot after DropCarried reused what the one before it made")
	}
	if !bytes.Equal(cold.carried.Marshal(), other.carried.Marshal()) {
		t.Fatal("a snapshot after DropCarried folds other bytes than the one before it")
	}
}

// trainingSamples is the training set p.trainSegs lays out, as
// ebrc.Train takes it: the reference the carried counts are held to.
func (p *Pipeline) trainingSamples() []ebrc.Sample {
	var out []ebrc.Sample
	for _, sg := range p.trainSegs {
		for _, line := range p.groupSamples[sg.gid][:sg.n] {
			out = append(out, ebrc.Sample{Text: line, Type: sg.typ})
		}
	}
	return out
}

// TestTrainCarryFollowsAnySegments: carried counts moved through any
// sequence of training sets of one lineage — groups that come, go,
// grow, shrink and change type, which a growing corpus makes only now
// and then — build the classifier ebrc.Train fits on the set they were
// moved to.
func TestTrainCarryFollowsAnySegments(t *testing.T) {
	p := &Pipeline{groupSamples: map[int][]string{}}
	const groups = 12
	for gid := range groups {
		typ := ndr.AllTypes[gid%len(ndr.AllTypes)]
		for i := range 20 {
			p.groupSamples[gid] = append(p.groupSamples[gid], renderT(typ, fmt.Sprintf("u%d-%d@d%d.com", gid, i, i%3)))
		}
	}
	rng := rand.New(rand.NewPCG(5, 35))
	tc := &trainCarry{counts: ebrc.NewCounts()}
	for step := range 200 {
		var segs []trainSeg
		for gid := range groups {
			if rng.IntN(3) == 0 {
				continue // not labeled this time
			}
			typ := ndr.AllTypes[rng.IntN(4)]
			segs = append(segs, trainSeg{gid, typ, 1 + rng.IntN(len(p.groupSamples[gid]))})
		}
		slices.SortFunc(segs, func(a, b trainSeg) int { return int(a.typ) - int(b.typ) })
		tc.moveTo(p, segs)
		p.trainSegs = segs
		got, samples := tc.counts.Classifier(), p.trainingSamples()
		if len(samples) == 0 {
			if got != nil {
				t.Fatalf("step %d: no samples, yet a classifier", step)
			}
			continue
		}
		want := ebrc.Train(samples)
		for _, lines := range p.groupSamples {
			for _, line := range lines {
				gt, gm := got.Predict(line)
				wt, wm := want.Predict(line)
				if gt != wt || gm != wm {
					t.Fatalf("step %d: carried counts predict %v %v for %q, ebrc.Train's %v %v", step, gt, gm, line, wt, wm)
				}
			}
		}
	}
}

// TestIncrementalScopedPassSharedByReaders: one snapshot's scoped pass
// and addFailed fold are made once and read by every caller, so Detect,
// Durations, BouncedPartials and ScopedPartials called from several
// goroutines at once, before either exists, answer what one caller
// alone gets (run under make race-parallel).
func TestIncrementalScopedPassSharedByReaders(t *testing.T) {
	records, env := generated(11, 6000)
	inc := NewIncremental(DefaultPipelineConfig())
	inc.AddBatch(records)
	ref := inc.Snapshot(env)
	det := ref.Detect()
	fig := ref.Durations(det)
	round1 := ref.BouncedPartials().Marshal()
	scope, err := ref.BouncedPartials().MarshalScope()
	if err != nil {
		t.Fatal(err)
	}
	scoped, err := ref.ScopedPartials(scope)
	if err != nil {
		t.Fatal(err)
	}
	inc.DropCarried()
	a := inc.Snapshot(env)
	errs := make(chan error, 4)
	for g := range 4 {
		go func() {
			var err error
			switch g {
			case 0, 1:
				if d := a.Detect(); !reflect.DeepEqual(d, det) || !reflect.DeepEqual(a.Durations(d), fig) {
					err = fmt.Errorf("reader %d: detections or Figure 7 differ", g)
				}
			case 2:
				if !bytes.Equal(a.BouncedPartials().Marshal(), round1) {
					err = fmt.Errorf("reader %d: round-1 set differs", g)
				}
			case 3:
				ps, e := a.ScopedPartials(scope)
				if err = e; err == nil && !bytes.Equal(ps.Marshal(), scoped.Marshal()) {
					err = fmt.Errorf("reader %d: round-2 set differs", g)
				}
			}
			errs <- err
		}()
	}
	for range 4 {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
