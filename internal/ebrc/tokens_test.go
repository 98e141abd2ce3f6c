package ebrc

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/ndr"
)

// walked collects what the in-place walk yields for line; ok is false
// where Train and Predict would fall back to Tokenize.
func walked(line string) (toks []string, ok bool) {
	low, ok := lowerASCII(nil, line)
	if !ok {
		return nil, false
	}
	t := tokens{low: low}
	for tok := t.next(); tok != nil; tok = t.next() {
		toks = append(toks, string(tok))
	}
	return toks, true
}

// referenceIDs is tokenIDs by the definition: Tokenize, then one
// vocabulary lookup per string.
func referenceIDs(c *Classifier, line string) []int32 {
	var ids []int32
	for _, tok := range Tokenize(line) {
		vi, ok := c.vocab[tok]
		if !ok {
			vi = len(c.vocab)
		}
		ids = append(ids, int32(vi))
	}
	return ids
}

// FuzzTokensMatchTokenize: for arbitrary bytes the walk Train and
// Predict run yields exactly Tokenize(line) — same tokens, same order —
// declines only lines with a byte outside ASCII, and the ids either
// path hands the model are the ones Tokenize's strings look up.
func FuzzTokensMatchTokenize(f *testing.F) {
	for _, s := range benchSamples(1) {
		f.Add(s.Text)
		f.Add(strings.ToUpper(s.Text))
	}
	for _, line := range []string{
		"", " ", "@", "a@", " @ ", "x\t550\v5.1.1\fUSER\rUNKNOWN\n",
		"to:<Bob@B.com>, rejected", "a,b@c d", "@@ @a@ b",
		"7", "42", "250", "450", "550", "300", "999", "5501", "0", "00",
		"v12ab", "12ab34", "A1", "1A", "x-1-y", "--", "..5..", "5.7.26",
		"Z", "az09AZ", "[127.0.0.1]", "<>", "a\x00b", "\x7f",
		"caf\xc3\xa9 closed", "\xff\xfe", "a\xc2\xa0b", "a\xc2\x85b", "Kelvin 550", "İnactive",
		"ＵＳＥＲ ｕｎｋｎｏｗｎ", "用户不存在 550", "a b", "\xe2\x80",
		strings.Repeat("long ", 80), strings.Repeat("x", 300),
	} {
		f.Add(line)
	}
	cls := Train(benchSamples(1))

	f.Fuzz(func(t *testing.T, line string) {
		want := Tokenize(line)
		got, ok := walked(line)
		if !ok {
			ascii := true
			for i := 0; i < len(line); i++ {
				ascii = ascii && line[i] < utf8.RuneSelf
			}
			if ascii {
				t.Fatalf("walk declined ASCII line %q", line)
			}
		} else if !reflect.DeepEqual(got, want) {
			t.Fatalf("walk(%q) = %q, Tokenize = %q", line, got, want)
		}
		if got, want := tokenIDs(cls.vocab, nil, line, false), referenceIDs(cls, line); !reflect.DeepEqual(got, want) {
			t.Fatalf("tokenIDs(%q) = %v, by Tokenize %v", line, got, want)
		}
	})
}

// referenceTrain is Train as it was written over Tokenize's string
// slices: the model the in-place trainer must reproduce bit for bit.
func referenceTrain(samples []Sample) *Classifier {
	c := &Classifier{vocab: make(map[string]int)}
	classIdx := make(map[ndr.Type]int)
	seen := map[ndr.Type]bool{}
	for _, s := range samples {
		seen[s.Type] = true
	}
	for _, t := range ndr.AllTypes {
		if seen[t] {
			classIdx[t] = len(c.classes)
			c.classes = append(c.classes, t)
		}
	}
	tokenized := make([][]string, len(samples))
	for i, s := range samples {
		tokenized[i] = Tokenize(s.Text)
		for _, tok := range tokenized[i] {
			if _, ok := c.vocab[tok]; !ok {
				c.vocab[tok] = len(c.vocab)
			}
		}
	}
	nc, nv := len(c.classes), len(c.vocab)
	counts := make([][]float64, nc)
	totals := make([]float64, nc)
	classN := make([]float64, nc)
	for i := range counts {
		counts[i] = make([]float64, nv)
	}
	for i, s := range samples {
		ci := classIdx[s.Type]
		classN[ci]++
		for _, tok := range tokenized[i] {
			counts[ci][c.vocab[tok]]++
			totals[ci]++
		}
	}
	c.logPrior = make([]float64, nc)
	c.logLik = make([][]float64, nc)
	for ci := 0; ci < nc; ci++ {
		c.logPrior[ci] = math.Log(classN[ci] / float64(len(samples)))
		c.logLik[ci] = make([]float64, nv+1)
		denom := totals[ci] + float64(nv+1)
		for vi := 0; vi < nv; vi++ {
			c.logLik[ci][vi] = math.Log((counts[ci][vi] + 1) / denom)
		}
		c.logLik[ci][nv] = math.Log(1 / denom)
	}
	return c
}

// referencePredict is Predict as it was written over Tokenize.
func referencePredict(c *Classifier, line string) (ndr.Type, float64) {
	toks := Tokenize(line)
	best, second := math.Inf(-1), math.Inf(-1)
	bestIdx := 0
	for ci := range c.classes {
		score := c.logPrior[ci]
		for _, tok := range toks {
			vi, ok := c.vocab[tok]
			if !ok {
				vi = len(c.vocab)
			}
			score += c.logLik[ci][vi]
		}
		if score > best {
			second = best
			best, bestIdx = score, ci
		} else if score > second {
			second = score
		}
	}
	margin := best - second
	if math.IsInf(margin, 0) {
		margin = 0
	}
	return c.classes[bestIdx], margin
}

// TestTrainMatchesReference: vocabulary order, priors and likelihoods
// are those of the Tokenize-based trainer, bit for bit — with and
// without non-ASCII samples that take the fallback — and Predict
// returns the same type and the same margin.
func TestTrainMatchesReference(t *testing.T) {
	samples := benchSamples(20)
	mixed := append(append([]Sample(nil), samples[:200]...),
		Sample{Text: "550 5.1.1 Utilisateur inconnu: bo\xc3\xa9@d.com bo\xc3\xaete introuvable", Type: ndr.T8NoSuchUser},
		Sample{Text: "552 5.2.2 Bo\xc3\xaete pleine (quota d\xc3\xa9pass\xc3\xa9 123456)", Type: ndr.T9MailboxFull},
	)
	for name, set := range map[string][]Sample{"catalog": samples, "with non-ASCII": mixed} {
		got, want := Train(set), referenceTrain(set)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Train differs from the Tokenize-based trainer (vocab %d vs %d)", name, len(got.vocab), len(want.vocab))
		}
		for _, s := range set {
			for _, line := range []string{s.Text, strings.ToUpper(s.Text), s.Text + " never-seen-token 77777"} {
				gt, gm := got.Predict(line)
				wt, wm := referencePredict(want, line)
				if gt != wt || gm != wm {
					t.Fatalf("%s: Predict(%q) = %v %v, reference %v %v", name, line, gt, gm, wt, wm)
				}
			}
		}
	}
}

// TestPredictAllocatesNothing: an ASCII line is classified without a
// heap allocation (the parent made 21: a lowered copy, the fields, a
// token slice and its growth).
func TestPredictAllocatesNothing(t *testing.T) {
	cls := Train(benchSamples(20))
	line := "452-4.2.2 The email account that you tried to reach is over quota (Bob@B.com, id 8f3a21)"
	if n := testing.AllocsPerRun(200, func() { cls.Predict(line) }); n != 0 {
		t.Errorf("Predict allocates %v times per ASCII line, want 0", n)
	}
}

// TestTrainAllocatesOnlyTheModel: once a Train has run, training again
// on the same samples allocates no more than building the classifier's
// own parts does — the struct, its class list, the vocabulary's map and
// keys, the priors and the likelihood table. The token ids, the sample
// ends, the growing vocabulary and the counts are scratch it reuses.
// A sync.Pool may drop what it holds (a collection empties it; under
// the race detector it drops some puts on purpose), so the count is the
// fewest of several single runs.
func TestTrainAllocatesOnlyTheModel(t *testing.T) {
	samples := benchSamples(20)
	cls := Train(samples)
	rebuild := func() {
		nc, nv := len(cls.classes), len(cls.vocab)
		c := &Classifier{
			classes:  append(make([]ndr.Type, 0, nc), cls.classes...),
			vocab:    make(map[string]int, nv),
			logPrior: make([]float64, nc),
			logLik:   make([][]float64, nc),
		}
		for tok, vi := range cls.vocab {
			c.vocab[strings.Clone(tok)] = vi
		}
		cells := make([]float64, nc*(nv+1))
		for ci := range c.logLik {
			c.logLik[ci] = cells[ci*(nv+1) : (ci+1)*(nv+1)]
		}
		sink = c
	}
	model := testing.AllocsPerRun(5, rebuild)
	got := math.Inf(1)
	for i := 0; i < 10; i++ {
		got = min(got, testing.AllocsPerRun(1, func() { sink = Train(samples) }))
	}
	if got > model {
		t.Errorf("Train allocates %v times, the classifier's own parts %v", got, model)
	}
}

var sink *Classifier
