package ebrc

import (
	"slices"
	"testing"

	"repro/internal/ndr"
)

// FuzzIncrementalTrainMatchesTrain: a Counts taken through any history
// of samples put in and taken out builds the classifier Train fits on
// what is left, and a line tokenises to the same ids every time. Each
// op byte picks a sample of a fixed pool to put in (even) or a held
// one to take out (odd); after the history, and halfway through it,
// every pool line must get the same type and the same margin from both
// models, and every group of held lines of one type the same majority
// vote. The pool holds catalog lines of every type, lines with tokens
// no other line has, an empty line and a non-ASCII one, so tokens leave
// the vocabulary and come back.
func FuzzIncrementalTrainMatchesTrain(f *testing.F) {
	pool := []Sample{
		{Text: "550 5.1.1 Utilisateur inconnu: bo\xc3\xa9@d.com bo\xc3\xaete introuvable", Type: ndr.T8NoSuchUser},
		{Text: "", Type: ndr.T16Unknown},
		{Text: "451 zebra quokka 4.7.1", Type: ndr.T5Blocklisted},
		{Text: "554 quokka narwhal", Type: ndr.T13ContentSpam},
	}
	// Every third catalog line, two renderings each: every type, and
	// few enough lines that an op byte reaches each.
	catalog := benchSamples(2)
	for i := 0; i < len(catalog) && len(pool) < 128; i += 3 {
		pool = append(pool, catalog[i])
	}
	f.Add([]byte{0, 2, 4, 6, 1, 8, 3})
	f.Add([]byte{byte(2 * (len(pool) - 1)), byte(2 * (len(pool) - 2)), 1, 1, byte(2 * (len(pool) - 1))})
	seq := make([]byte, 0, 2*len(pool))
	for i := range pool {
		seq = append(seq, byte(2*i))
	}
	f.Add(append(seq, 1, 3, 5, 7, 9, 11, 13, 1, 1, 1))

	f.Fuzz(func(t *testing.T, ops []byte) {
		c := NewCounts()
		ids := make([][]int32, len(pool))
		var held []int // pool indices, a multiset
		check := func(when string) {
			got := c.Classifier()
			if len(held) == 0 {
				if got != nil {
					t.Fatalf("%s: an empty multiset built a classifier", when)
				}
				return
			}
			set := make([]Sample, len(held))
			byType := map[ndr.Type][]string{}
			for i, j := range held {
				set[i] = pool[j]
				byType[pool[j].Type] = append(byType[pool[j].Type], pool[j].Text)
			}
			want := Train(set)
			for _, s := range pool {
				for _, line := range []string{s.Text, s.Text + " never-seen 98765"} {
					gt, gm := got.Predict(line)
					wt, wm := want.Predict(line)
					if gt != wt || gm != wm {
						t.Fatalf("%s: Predict(%q) = %v %v, Train's %v %v", when, line, gt, gm, wt, wm)
					}
				}
			}
			for typ, lines := range byType {
				if g, w := got.PredictTemplate(lines), want.PredictTemplate(lines); g != w {
					t.Fatalf("%s: PredictTemplate over the %v lines = %v, Train's %v", when, typ, g, w)
				}
			}
		}
		for k, op := range ops {
			if op&1 == 0 || len(held) == 0 {
				j := int(op>>1) % len(pool)
				if ids[j] == nil {
					ids[j] = c.TokenIDs([]int32{}, pool[j].Text)
				}
				c.Add(pool[j].Type, ids[j], 1)
				held = append(held, j)
			} else {
				h := int(op>>1) % len(held)
				j := held[h]
				if again := c.TokenIDs(nil, pool[j].Text); !slices.Equal(again, ids[j]) {
					t.Fatalf("%q tokenises to ids %v, then %v", pool[j].Text, ids[j], again)
				}
				c.Add(pool[j].Type, ids[j], -1)
				held[h] = held[len(held)-1]
				held = held[:len(held)-1]
			}
			if k == len(ops)/2 {
				check("halfway")
			}
		}
		check("at the end")
	})
}
