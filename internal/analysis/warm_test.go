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
// and the batch Analysis (New), which carries nothing: verdicts,
// round-1 set and whole set, with an environment so the geo collectors
// fold too. The history runs +1, +5, +20 and +1,000 records, then
// restores the accumulator from a checkpoint of it mid-history and goes
// on warm from there.
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
		for name, ref := range map[string]*Analysis{"cold snapshot": fresh.Snapshot(env), "batch": New(records[:added], env)} {
			if !reflect.DeepEqual(warm.Classified, ref.Classified) {
				t.Fatalf("%s: warm verdicts differ from the %s's", when, name)
			}
			if !bytes.Equal(warm.BouncedPartials().Marshal(), ref.BouncedPartials().Marshal()) {
				t.Fatalf("%s: warm round-1 set differs from the %s's", when, name)
			}
			if !bytes.Equal(warm.Partials().Marshal(), ref.Partials().Marshal()) {
				t.Fatalf("%s: warm partial set differs from the %s's", when, name)
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
// records' labels, that the next snapshot leaves as it was. A snapshot
// of another environment, or after DropCarried, starts over.
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
	inc.AddBatch(records[n:])
	after := inc.Snapshot(env)
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
