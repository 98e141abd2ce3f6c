// Package spamfilter implements content-based spam scoring for both
// sides of a delivery: the sender ESP's filter (which stamps the
// email_flag field of the dataset) and heterogeneous receiver-side
// filters. The paper's key finding is that rule differences between
// filters cause large verdict disagreement (46.49% of Coremail-spam is
// ham to receivers; 39.46% of receiver-spam is ham to Coremail), which
// in turn wastes retries and damages MTA reputation. Filters here score
// token features generated from a latent spamminess, with per-ESP weight
// and threshold perturbation producing mechanistic disagreement.
package spamfilter

import (
	"fmt"

	"repro/internal/simrng"
)

// Token vocabularies. Messages never carry real content (the paper's
// dataset has none); these tokens stand in for the features a content
// filter would extract.
var (
	spamTokens = []string{
		"prize", "winner", "free-money", "crypto-double", "viagra",
		"lottery", "act-now", "wire-transfer", "unclaimed-funds",
		"miracle-cure", "hot-singles", "casino-bonus", "cheap-meds",
		"urgent-inheritance", "work-from-home", "guaranteed-roi",
		"click-here", "limited-offer", "risk-free", "no-obligation",
	}
	hamTokens = []string{
		"meeting", "quarterly-report", "invoice", "syllabus", "thesis",
		"agenda", "deployment", "review-comments", "itinerary",
		"purchase-order", "lab-results", "conference-cfp", "timesheet",
		"contract-draft", "shipping-manifest", "release-notes",
		"course-enrollment", "budget-forecast", "password-reset", "receipt",
	}
	sharedTokens = []string{
		"offer", "account", "payment", "confirm", "update", "discount",
		"newsletter", "subscription", "promotion", "invitation",
	}
)

// GenerateTokens draws n content tokens for a message with the given
// latent spamminess in [0,1]. Higher spamminess shifts the mixture
// toward the spam vocabulary; the shared vocabulary keeps the problem
// ambiguous near the middle.
func GenerateTokens(rng *simrng.RNG, spamminess float64, n int) []string {
	if n <= 0 {
		n = 12
	}
	out := make([]string, n)
	for i := range out {
		u := rng.Float64()
		switch {
		case u < 0.25:
			out[i] = simrng.Pick(rng, sharedTokens)
		case rng.Float64() < spamminess:
			out[i] = simrng.Pick(rng, spamTokens)
		default:
			out[i] = simrng.Pick(rng, hamTokens)
		}
	}
	return out
}

// Filter is one ESP's content filter: per-token weights plus a decision
// threshold. Positive score means spammy.
type Filter struct {
	Name      string
	weights   map[string]float64
	threshold float64
}

// NewCanonical returns the reference filter (used for the sender ESP):
// spam tokens weigh +1, ham tokens −1, shared tokens 0, threshold 0.15.
func NewCanonical(name string) *Filter {
	f := &Filter{Name: name, weights: make(map[string]float64), threshold: 0.15}
	for _, t := range spamTokens {
		f.weights[t] = 1
	}
	for _, t := range hamTokens {
		f.weights[t] = -1
	}
	for _, t := range sharedTokens {
		f.weights[t] = 0
	}
	return f
}

// NewPerturbed returns a filter whose weights are jittered by ±jitter
// and whose threshold is shifted by thresholdShift relative to the
// canonical filter. Receiver ESPs get perturbed filters, producing the
// cross-ESP disagreement the paper measures.
func NewPerturbed(name string, rng *simrng.RNG, jitter, thresholdShift float64) *Filter {
	f := NewCanonical(name)
	// Perturb in deterministic vocabulary order: map iteration order
	// would break run-to-run reproducibility.
	for _, vocab := range [][]string{spamTokens, hamTokens, sharedTokens} {
		for _, tok := range vocab {
			f.weights[tok] += (rng.Float64()*2 - 1) * jitter
		}
	}
	f.threshold += thresholdShift
	return f
}

// Score returns the mean token weight of the message's tokens. Unknown
// tokens score zero.
func (f *Filter) Score(tokens []string) float64 {
	if len(tokens) == 0 {
		return 0
	}
	sum := 0.0
	for _, t := range tokens {
		sum += f.weights[t]
	}
	return sum / float64(len(tokens))
}

// Classify reports whether the filter considers the token set spam.
func (f *Filter) Classify(tokens []string) bool {
	return f.Score(tokens) > f.threshold
}

// String identifies the filter.
func (f *Filter) String() string {
	return fmt.Sprintf("spamfilter(%s, thr=%.2f)", f.Name, f.threshold)
}
