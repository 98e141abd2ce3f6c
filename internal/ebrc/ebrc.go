// Package ebrc implements the Email Bounce Reason Classifier of
// Section 3.2. The paper fine-tunes BERT on 4,000 raw NDR messages per
// type; offline and stdlib-only, we use multinomial naive Bayes over
// normalized NDR tokens, trained with the same template-bootstrapped
// procedure (Drain templates → manual top-200 labels → per-type raw
// sampling → per-template majority prediction) and evaluated with the
// same confusion-matrix protocol (paper: 93.85% recall, 91.24%
// precision). NDR text is short and highly templated, so NB reaches the
// same operating point.
package ebrc

import (
	"math"
	"sort"
	"strings"
	"sync"
	"unicode/utf8"

	"repro/internal/ndr"
)

// Sample is one labeled training example.
type Sample struct {
	Text string
	Type ndr.Type
}

// Tokenize normalizes an NDR line into classifier features. It keeps
// SMTP reply codes and single status digits (the most discriminative
// tokens) while collapsing vendor noise: long numbers become <num>,
// mixed alphanumerics become <id>, and anything containing '@' becomes
// <addr>.
func Tokenize(line string) []string {
	var out []string
	for _, raw := range strings.Fields(strings.ToLower(line)) {
		if strings.ContainsRune(raw, '@') {
			out = append(out, "<addr>")
			continue
		}
		for _, tok := range splitAlnum(raw) {
			out = append(out, normalizeToken(tok))
		}
	}
	return out
}

// splitAlnum splits a field into maximal alphanumeric runs.
func splitAlnum(s string) []string {
	var out []string
	start := -1
	for i := 0; i < len(s); i++ {
		c := s[i]
		alnum := c >= 'a' && c <= 'z' || c >= '0' && c <= '9'
		if alnum && start < 0 {
			start = i
		}
		if !alnum && start >= 0 {
			out = append(out, s[start:i])
			start = -1
		}
	}
	if start >= 0 {
		out = append(out, s[start:])
	}
	return out
}

func normalizeToken(tok string) string {
	digits, letters := 0, 0
	for i := 0; i < len(tok); i++ {
		if tok[i] >= '0' && tok[i] <= '9' {
			digits++
		} else {
			letters++
		}
	}
	switch {
	case digits == 0:
		return tok
	case letters > 0:
		return "<id>"
	case len(tok) <= 1:
		return tok // single status digit: highly discriminative
	case len(tok) == 3 && (tok[0] == '2' || tok[0] == '4' || tok[0] == '5'):
		return tok // SMTP reply code
	default:
		return "<num>"
	}
}

// The three tokens normalizeToken and Tokenize substitute.
var (
	tokAddr = []byte("<addr>")
	tokID   = []byte("<id>")
	tokNum  = []byte("<num>")
)

// tokens walks the tokens of an ASCII line in place: next yields, in
// order, exactly the strings Tokenize(line) holds, as byte spans of the
// lower-cased line (or one of the three substitutes) instead of a
// string apiece. Tokenize stays the definition; FuzzTokensMatchTokenize
// holds the walk to it.
type tokens struct {
	low      []byte // the line, ASCII-lower-cased
	pos      int
	fieldEnd int // end of the '@'-free field pos is inside
}

func isSpace(c byte) bool { return c == ' ' || c >= '\t' && c <= '\r' } // strings.Fields' ASCII set

func isAlnum(c byte) bool { return c >= 'a' && c <= 'z' || c >= '0' && c <= '9' }

// next returns the next token, nil after the last. The span is valid
// until the line buffer is reused.
func (t *tokens) next() []byte {
	for t.pos < len(t.low) {
		if t.pos >= t.fieldEnd {
			// Between fields: find the next one and look for its '@'.
			if isSpace(t.low[t.pos]) {
				t.pos++
				continue
			}
			end, addr := t.pos, false
			for end < len(t.low) && !isSpace(t.low[end]) {
				addr = addr || t.low[end] == '@'
				end++
			}
			if addr {
				t.pos = end
				return tokAddr
			}
			t.fieldEnd = end
		}
		if !isAlnum(t.low[t.pos]) {
			t.pos++
			continue
		}
		start, digits := t.pos, 0
		for t.pos < t.fieldEnd && isAlnum(t.low[t.pos]) {
			if t.low[t.pos] <= '9' {
				digits++
			}
			t.pos++
		}
		tok := t.low[start:t.pos]
		switch { // normalizeToken, on the counts the scan already has
		case digits == 0:
			return tok
		case digits < len(tok):
			return tokID
		case len(tok) == 1:
			return tok
		case len(tok) == 3 && (tok[0] == '2' || tok[0] == '4' || tok[0] == '5'):
			return tok
		default:
			return tokNum
		}
	}
	return nil
}

// lowerASCII appends line to buf with A–Z lower-cased; ok is false (and
// the result unusable) if line holds a byte outside ASCII, where
// ToLower and Fields follow Unicode and only Tokenize will do.
func lowerASCII(buf []byte, line string) (low []byte, ok bool) {
	for i := 0; i < len(line); i++ {
		c := line[i]
		if c >= utf8.RuneSelf {
			return nil, false
		}
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		buf = append(buf, c)
	}
	return buf, true
}

// Classifier is a trained multinomial naive Bayes model. It is
// immutable after Train, so Predict and PredictTemplate are safe for
// concurrent use — the property the online classify path relies on.
type Classifier struct {
	classes  []ndr.Type
	vocab    map[string]int
	logPrior []float64
	logLik   [][]float64 // class × (vocab + 1 unk slot)
}

// trainScratch is what one Train call works in and the classifier does
// not keep: the vocabulary as it grows, every sample's token ids back
// to back, and where each sample's ids end. Train takes one from
// trainPool and returns it emptied, so a node that retrains its
// substreams on every snapshot reuses one set of buffers instead of
// growing new ones each time.
type trainScratch struct {
	vocab map[string]int
	ids   []int32
	ends  []int
}

var trainPool = sync.Pool{New: func() any {
	return &trainScratch{vocab: make(map[string]int)}
}}

// Train fits the classifier on the labeled samples with Laplace
// smoothing. It panics on an empty sample set. What it allocates is
// what the classifier keeps: the vocabulary, the priors and the
// likelihood tables, whose cells hold the token counts until they are
// turned into log-likelihoods in place.
func Train(samples []Sample) *Classifier {
	if len(samples) == 0 {
		panic("ebrc: no training samples")
	}
	sc := trainPool.Get().(*trainScratch)
	defer func() {
		clear(sc.vocab)
		sc.ids, sc.ends = sc.ids[:0], sc.ends[:0]
		trainPool.Put(sc)
	}()

	// Stable class order: by type value. A type outside T1..T16 has no
	// class of its own and counts toward class 0.
	var seen [ndr.NumTypes + 1]bool
	for _, s := range samples {
		if s.Type >= 1 && s.Type <= ndr.NumTypes {
			seen[s.Type] = true
		}
	}
	nc := 0
	for _, ok := range seen {
		if ok {
			nc++
		}
	}
	c := &Classifier{classes: make([]ndr.Type, 0, nc)}
	var classIdx [ndr.NumTypes + 1]int
	for _, t := range ndr.AllTypes {
		if seen[t] {
			classIdx[t] = len(c.classes)
			c.classes = append(c.classes, t)
		}
	}

	for _, s := range samples {
		sc.ids = tokenIDs(sc.vocab, sc.ids, s.Text, true)
		sc.ends = append(sc.ends, len(sc.ids))
	}
	nv := len(sc.vocab)
	c.vocab = make(map[string]int, nv)
	for tok, vi := range sc.vocab {
		c.vocab[tok] = vi
	}

	// Count into the likelihood rows, then turn each row into logs.
	c.logPrior = make([]float64, nc)
	c.logLik = make([][]float64, nc)
	cells := make([]float64, nc*(nv+1))
	for ci := range c.logLik {
		c.logLik[ci] = cells[ci*(nv+1) : (ci+1)*(nv+1) : (ci+1)*(nv+1)]
	}
	start := 0
	for i, s := range samples {
		ci := 0
		if s.Type >= 1 && s.Type <= ndr.NumTypes {
			ci = classIdx[s.Type]
		}
		c.logPrior[ci]++
		row := c.logLik[ci]
		for _, vi := range sc.ids[start:sc.ends[i]] {
			row[vi]++
		}
		row[nv] += float64(sc.ends[i] - start) // the class's token total, until the logs
		start = sc.ends[i]
	}
	for ci, row := range c.logLik {
		c.logPrior[ci] = math.Log(c.logPrior[ci] / float64(len(samples)))
		denom := row[nv] + float64(nv+1) // +1 for the unknown slot
		for vi := 0; vi < nv; vi++ {
			row[vi] = math.Log((row[vi] + 1) / denom)
		}
		row[nv] = math.Log(1 / denom) // unseen token
	}
	return c
}

// tokenIDs appends the vocabulary id of every token of Tokenize(line),
// in order. A token outside vocab gets the unknown slot's id,
// len(vocab), or — with grow, while training — the next free one. An
// ASCII line of ordinary length allocates nothing but the vocabulary's
// own new keys.
func tokenIDs(vocab map[string]int, ids []int32, line string, grow bool) []int32 {
	id := func(tok []byte) int32 {
		vi, ok := vocab[string(tok)] // no copy: the compiler sees a lookup
		if !ok {
			vi = len(vocab)
			if grow {
				vocab[string(tok)] = vi
			}
		}
		return int32(vi)
	}
	var buf [256]byte
	low, ok := lowerASCII(buf[:0], line)
	if !ok {
		for _, tok := range Tokenize(line) {
			ids = append(ids, id([]byte(tok)))
		}
		return ids
	}
	t := tokens{low: low}
	for tok := t.next(); tok != nil; tok = t.next() {
		ids = append(ids, id(tok))
	}
	return ids
}

// Counts holds a training multiset as what Train reads of it: samples
// per type, and per type how often each token occurs. Samples come and
// go one at a time (Add with k = +1 or −1) as the token ids TokenIDs
// gives their text, the same ids every time, so a set that changes by
// a few samples between two trainings tokenises only those;
// Classifier then rebuilds the model from the counts. The result
// equals Train over the same multiset, which depends on nothing else:
// not the sample order, not the order tokens were first seen in. A
// Counts is not safe for concurrent use; the classifiers it builds are
// immutable.
type Counts struct {
	vocab   map[string]int            // every token ever seen, by first-seen id
	samples int                       // samples in the multiset
	perType [ndr.NumTypes + 1]int     // samples per type
	tokens  [ndr.NumTypes + 1]int     // token occurrences per type
	cnt     [ndr.NumTypes + 1][]int32 // per type, occurrences per token id; a short row ends in zeroes
	total   []int32                   // per token id, occurrences over every type
}

// NewCounts returns an empty multiset.
func NewCounts() *Counts { return &Counts{vocab: make(map[string]int)} }

// TokenIDs appends the ids of Tokenize(line)'s tokens to dst, giving a
// token seen for the first time the next free id. A token keeps its id
// for the life of c.
func (c *Counts) TokenIDs(dst []int32, line string) []int32 {
	dst = tokenIDs(c.vocab, dst, line, true)
	for len(c.total) < len(c.vocab) {
		c.total = append(c.total, 0)
	}
	return dst
}

// Add puts k copies of a sample into the multiset (k < 0 takes −k
// out): its type and the ids TokenIDs gave its text. typ must be one of
// T1..T16, the types Train gives a class, and a sample is only taken
// out after it was put in.
func (c *Counts) Add(typ ndr.Type, ids []int32, k int) {
	if typ < 1 || typ > ndr.NumTypes {
		panic("ebrc: a counted sample needs a type in T1..T16")
	}
	c.samples += k
	c.perType[typ] += k
	c.tokens[typ] += k * len(ids)
	row := c.cnt[typ]
	if len(row) < len(c.total) {
		row = append(row, make([]int32, len(c.total)-len(row))...)
		c.cnt[typ] = row
	}
	for _, vi := range ids {
		row[vi] += int32(k)
		c.total[vi] += int32(k)
	}
}

// Classifier builds the model Train would fit on the multiset, or nil
// for an empty one. The vocabulary is the tokens the multiset holds now,
// however many more it held before.
func (c *Counts) Classifier() *Classifier {
	if c.samples == 0 {
		return nil
	}
	// Dense ids for the tokens present, in first-seen order; a token
	// no sample holds any more has none, as Train would never have seen
	// it.
	dense := make([]int32, len(c.total))
	nv := 0
	for g, n := range c.total {
		dense[g] = -1
		if n > 0 {
			dense[g] = int32(nv)
			nv++
		}
	}
	cl := &Classifier{vocab: make(map[string]int, nv)}
	for tok, g := range c.vocab {
		if dense[g] >= 0 {
			cl.vocab[tok] = int(dense[g])
		}
	}
	for _, t := range ndr.AllTypes {
		if c.perType[t] > 0 {
			cl.classes = append(cl.classes, t)
		}
	}
	nc := len(cl.classes)
	cl.logPrior = make([]float64, nc)
	cl.logLik = make([][]float64, nc)
	cells := make([]float64, nc*(nv+1))
	for ci, t := range cl.classes {
		row := cells[ci*(nv+1) : (ci+1)*(nv+1) : (ci+1)*(nv+1)]
		cl.logLik[ci] = row
		cl.logPrior[ci] = math.Log(float64(c.perType[t]) / float64(c.samples))
		// Train's arithmetic, on the same integers: the counts are
		// exact in a float64, so every cell is bit-identical.
		denom := float64(c.tokens[t]) + float64(nv+1)
		unseen := math.Log(1 / denom)
		cnt := c.cnt[t]
		for g, d := range dense {
			switch {
			case d < 0:
			case g < len(cnt) && cnt[g] > 0:
				row[d] = math.Log((float64(cnt[g]) + 1) / denom)
			default:
				row[d] = unseen // log((0+1)/denom)
			}
		}
		row[nv] = unseen
	}
	return cl
}

// Classes returns the types the classifier can predict.
func (c *Classifier) Classes() []ndr.Type {
	return append([]ndr.Type(nil), c.classes...)
}

// Predict labels one NDR line, returning the type and the log-domain
// margin between the best and second-best class (a confidence proxy).
func (c *Classifier) Predict(line string) (ndr.Type, float64) {
	var buf [64]int32
	ids := tokenIDs(c.vocab, buf[:0], line, false)
	best, second := math.Inf(-1), math.Inf(-1)
	bestIdx := 0
	for ci := range c.classes {
		score := c.logPrior[ci]
		lik := c.logLik[ci]
		for _, vi := range ids {
			score += lik[vi]
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

// PredictTemplate labels a template by majority vote over a sample of
// its raw messages — the paper's per-template prediction step ("we take
// the most frequently occurring type within a prediction set as the
// type of the corresponding template").
func (c *Classifier) PredictTemplate(lines []string) ndr.Type {
	votes := map[ndr.Type]int{}
	for _, l := range lines {
		t, _ := c.Predict(l)
		votes[t]++
	}
	var best ndr.Type
	bestN := -1
	// Deterministic tie-break by type order.
	for _, t := range ndr.AllTypes {
		if votes[t] > bestN {
			best, bestN = t, votes[t]
		}
	}
	return best
}

// Confusion is a confusion matrix over the classifier's classes.
type Confusion struct {
	Classes []ndr.Type
	idx     map[ndr.Type]int
	M       [][]int // [true][predicted]
}

// NewConfusion creates an empty matrix for the given classes.
func NewConfusion(classes []ndr.Type) *Confusion {
	cm := &Confusion{
		Classes: append([]ndr.Type(nil), classes...),
		idx:     make(map[ndr.Type]int),
	}
	cm.M = make([][]int, len(classes))
	for i, t := range classes {
		cm.idx[t] = i
		cm.M[i] = make([]int, len(classes))
	}
	return cm
}

// Add records one (truth, prediction) pair; unknown types are ignored.
func (cm *Confusion) Add(truth, pred ndr.Type) {
	ti, ok1 := cm.idx[truth]
	pi, ok2 := cm.idx[pred]
	if ok1 && ok2 {
		cm.M[ti][pi]++
	}
}

// Recall returns TP/(TP+FN) for type t (NaN-free: 0 when unsupported).
func (cm *Confusion) Recall(t ndr.Type) float64 {
	ti, ok := cm.idx[t]
	if !ok {
		return 0
	}
	row := 0
	for _, v := range cm.M[ti] {
		row += v
	}
	if row == 0 {
		return 0
	}
	return float64(cm.M[ti][ti]) / float64(row)
}

// Precision returns TP/(TP+FP) for type t.
func (cm *Confusion) Precision(t ndr.Type) float64 {
	ti, ok := cm.idx[t]
	if !ok {
		return 0
	}
	col := 0
	for r := range cm.M {
		col += cm.M[r][ti]
	}
	if col == 0 {
		return 0
	}
	return float64(cm.M[ti][ti]) / float64(col)
}

// MacroRecall averages recall over classes with support.
func (cm *Confusion) MacroRecall() float64 {
	sum, n := 0.0, 0
	for i, t := range cm.Classes {
		row := 0
		for _, v := range cm.M[i] {
			row += v
		}
		if row > 0 {
			sum += cm.Recall(t)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MacroPrecision averages precision over classes that were predicted at
// least once.
func (cm *Confusion) MacroPrecision() float64 {
	sum, n := 0.0, 0
	for i, t := range cm.Classes {
		col := 0
		for r := range cm.M {
			col += cm.M[r][i]
		}
		if col > 0 {
			sum += cm.Precision(t)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Accuracy returns the overall fraction of correct predictions.
func (cm *Confusion) Accuracy() float64 {
	correct, total := 0, 0
	for i := range cm.M {
		for j, v := range cm.M[i] {
			total += v
			if i == j {
				correct += v
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// TopConfusions returns the n largest off-diagonal cells, useful for
// error analysis in reports.
func (cm *Confusion) TopConfusions(n int) []struct {
	Truth, Pred ndr.Type
	Count       int
} {
	type cell struct {
		truth, pred ndr.Type
		count       int
	}
	var cells []cell
	for i := range cm.M {
		for j, v := range cm.M[i] {
			if i != j && v > 0 {
				cells = append(cells, cell{cm.Classes[i], cm.Classes[j], v})
			}
		}
	}
	sort.Slice(cells, func(a, b int) bool { return cells[a].count > cells[b].count })
	if n > len(cells) {
		n = len(cells)
	}
	out := make([]struct {
		Truth, Pred ndr.Type
		Count       int
	}, n)
	for i := 0; i < n; i++ {
		out[i] = struct {
			Truth, Pred ndr.Type
			Count       int
		}{cells[i].truth, cells[i].pred, cells[i].count}
	}
	return out
}
