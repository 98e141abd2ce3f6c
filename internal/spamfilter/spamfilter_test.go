package spamfilter

import (
	"strings"
	"testing"

	"repro/internal/simrng"
)

func TestCanonicalSeparatesClearCases(t *testing.T) {
	f := NewCanonical("coremail")
	rng := simrng.New(1)
	spamOK, hamOK := 0, 0
	const n = 2000
	for i := 0; i < n; i++ {
		if f.Classify(GenerateTokens(rng, 0.95, 12)) {
			spamOK++
		}
		if !f.Classify(GenerateTokens(rng, 0.05, 12)) {
			hamOK++
		}
	}
	if float64(spamOK)/n < 0.95 {
		t.Errorf("canonical filter catches only %d/%d obvious spam", spamOK, n)
	}
	if float64(hamOK)/n < 0.95 {
		t.Errorf("canonical filter passes only %d/%d obvious ham", hamOK, n)
	}
}

func TestScoreMonotonicInSpamminess(t *testing.T) {
	f := NewCanonical("c")
	rng := simrng.New(2)
	avg := func(s float64) float64 {
		sum := 0.0
		for i := 0; i < 500; i++ {
			sum += f.Score(GenerateTokens(rng, s, 12))
		}
		return sum / 500
	}
	lo, mid, hi := avg(0.1), avg(0.5), avg(0.9)
	if !(lo < mid && mid < hi) {
		t.Errorf("score not monotone: %g %g %g", lo, mid, hi)
	}
}

func TestPerturbedFiltersDisagree(t *testing.T) {
	rng := simrng.New(3)
	coremail := NewCanonical("coremail")
	receiver := NewPerturbed("strict-esp", rng.Stream("f1"), 0.5, -0.10)
	gen := rng.Stream("gen")
	disagree := 0
	const n = 5000
	for i := 0; i < n; i++ {
		// Ambiguous mid-range traffic is where filters disagree.
		toks := GenerateTokens(gen, 0.25+0.5*gen.Float64(), 12)
		if coremail.Classify(toks) != receiver.Classify(toks) {
			disagree++
		}
	}
	rate := float64(disagree) / n
	if rate < 0.05 || rate > 0.8 {
		t.Errorf("disagreement rate %g, want sizable but not total", rate)
	}
}

func TestEmptyAndUnknownTokens(t *testing.T) {
	f := NewCanonical("c")
	if f.Score(nil) != 0 {
		t.Error("empty token set should score 0")
	}
	if f.Classify([]string{"zzz-unknown", "qqq-unknown"}) {
		t.Error("unknown tokens should not classify as spam")
	}
}

func TestGenerateTokensCount(t *testing.T) {
	rng := simrng.New(4)
	if got := len(GenerateTokens(rng, 0.5, 7)); got != 7 {
		t.Errorf("token count %d want 7", got)
	}
	if got := len(GenerateTokens(rng, 0.5, 0)); got != 12 {
		t.Errorf("default token count %d want 12", got)
	}
}

func TestGenerateTokensVocabulary(t *testing.T) {
	rng := simrng.New(5)
	known := map[string]bool{}
	for _, v := range [][]string{spamTokens, hamTokens, sharedTokens} {
		for _, tok := range v {
			known[tok] = true
		}
	}
	for _, tok := range GenerateTokens(rng, 0.5, 200) {
		if !known[tok] {
			t.Fatalf("generated unknown token %q", tok)
		}
	}
}

func TestPerturbedDeterministicPerStream(t *testing.T) {
	a := NewPerturbed("x", simrng.New(7).Stream("f"), 0.3, 0)
	b := NewPerturbed("x", simrng.New(7).Stream("f"), 0.3, 0)
	toks := []string{"prize", "meeting", "offer", "invoice"}
	if a.Score(toks) != b.Score(toks) {
		t.Error("same stream should produce identical filters")
	}
}

func TestStringContainsName(t *testing.T) {
	f := NewCanonical("gmail-like")
	if s := f.String(); !strings.Contains(s, "gmail-like") {
		t.Errorf("String() = %q", s)
	}
	if f.threshold != 0.15 {
		t.Errorf("canonical threshold %g", f.threshold)
	}
}
