// Package drain implements the Drain online log-template miner
// (He, Zhu, Zheng, Lyu — "Drain: An Online Log Parsing Approach with
// Fixed Depth Tree", ICWS 2017), which the paper applies to cluster 190M
// NDR messages into 10,089 templates (Section 3.2). Messages are routed
// through a fixed-depth prefix tree (first by token count, then by their
// leading tokens) to a leaf holding candidate groups; a message joins
// the most similar group above a threshold, updating the group template
// by wildcarding the positions that differ, or founds a new group.
package drain

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// Wildcard is the placeholder for variable template positions. The
// paper renders templates with "(.*)"; we follow it.
const Wildcard = "(.*)"

// Config tunes the parse tree.
type Config struct {
	// Depth is the total tree depth including the root and length
	// layers; Depth-2 token layers route on the first Depth-2 tokens.
	Depth int
	// SimThreshold is the minimum token-level similarity for a message
	// to join an existing group.
	SimThreshold float64
	// MaxChildren caps the branching factor of each internal node;
	// overflow tokens route through a shared wildcard child.
	MaxChildren int
}

// DefaultConfig returns the parameters from the Drain paper (depth 4,
// similarity 0.4, 100 children).
func DefaultConfig() Config {
	return Config{Depth: 4, SimThreshold: 0.4, MaxChildren: 100}
}

// Group is one mined template cluster.
type Group struct {
	ID     int
	Count  int // messages absorbed
	tokens []string
}

// Template renders the group's template with wildcards.
func (g *Group) Template() string { return strings.Join(g.tokens, " ") }

// Tokens returns a copy of the template tokens.
func (g *Group) Tokens() []string {
	out := make([]string, len(g.tokens))
	copy(out, g.tokens)
	return out
}

type node struct {
	children map[string]*node
	groups   []*Group // only at leaves
}

// Parser is the Drain miner. It is safe for concurrent use. A parser
// that has stopped training can be Frozen, which lets Match and Groups
// skip the mutex entirely.
type Parser struct {
	cfg Config

	mu     sync.Mutex
	root   *node // first layer: token-count key
	groups []*Group
	nextID int
	frozen bool
	tokBuf []string // tokenization scratch, used under mu only
}

// New creates a parser; zero-value config fields fall back to defaults.
func New(cfg Config) *Parser {
	def := DefaultConfig()
	if cfg.Depth < 3 {
		cfg.Depth = def.Depth
	}
	if cfg.SimThreshold <= 0 || cfg.SimThreshold >= 1 {
		cfg.SimThreshold = def.SimThreshold
	}
	if cfg.MaxChildren <= 0 {
		cfg.MaxChildren = def.MaxChildren
	}
	return &Parser{cfg: cfg, root: &node{children: map[string]*node{}}}
}

// Freeze marks the parser immutable: Train panics afterwards, and
// Match and Groups stop taking the mutex — the lock-free
// read path parallel classification depends on. Freeze must
// happen-before any lock-free reader (publish the parser through a
// channel, mutex, or goroutine start).
func (p *Parser) Freeze() {
	p.mu.Lock()
	p.frozen = true
	p.mu.Unlock()
}

// hasDigit reports whether a token contains a digit; such tokens are
// treated as variables during routing (Drain's preprocessing step).
func hasDigit(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= '0' && s[i] <= '9' {
			return true
		}
	}
	return false
}

// asciiSpace marks the bytes unicode.IsSpace reports in ASCII range —
// the same table strings.Fields keys its fast path on.
var asciiSpace = [256]uint8{'\t': 1, '\n': 1, '\v': 1, '\f': 1, '\r': 1, ' ': 1}

// appendFields appends the fields of line to dst and returns it —
// strings.Fields with a caller-owned buffer, so the per-line []string
// allocation on the match hot path disappears. Field boundaries are
// identical to strings.Fields (unicode.IsSpace separators, including
// non-ASCII spaces like U+00A0): the returned tokens are substrings of
// line in order.
func appendFields(dst []string, line string) []string {
	start := -1 // field start, or -1 between fields
	i := 0
	for i < len(line) {
		if c := line[i]; c < utf8.RuneSelf {
			if asciiSpace[c] == 1 {
				if start >= 0 {
					dst = append(dst, line[start:i])
					start = -1
				}
			} else if start < 0 {
				start = i
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(line[i:])
		if unicode.IsSpace(r) {
			if start >= 0 {
				dst = append(dst, line[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
		i += size
	}
	if start >= 0 {
		dst = append(dst, line[start:])
	}
	return dst
}

// routeKey returns the routing key for a token at an internal layer.
func (p *Parser) routeKey(tok string) string {
	if hasDigit(tok) {
		return Wildcard
	}
	return tok
}

// leafFor walks (and on insert, builds) the path for the token sequence.
func (p *Parser) leafFor(tokens []string, insert bool) *node {
	lenKey := lengthKey(len(tokens))
	cur, ok := p.root.children[lenKey]
	if !ok {
		if !insert {
			return nil
		}
		cur = &node{children: map[string]*node{}}
		p.root.children[lenKey] = cur
	}
	layers := p.cfg.Depth - 2
	for i := 0; i < layers; i++ {
		if i >= len(tokens) {
			break
		}
		key := p.routeKey(tokens[i])
		next, ok := cur.children[key]
		if !ok {
			if !insert {
				// Fall back to the wildcard child when matching only.
				if wc, ok := cur.children[Wildcard]; ok {
					cur = wc
					continue
				}
				return nil
			}
			if len(cur.children) >= p.cfg.MaxChildren {
				key = Wildcard
				if wc, ok := cur.children[Wildcard]; ok {
					cur = wc
					continue
				}
			}
			next = &node{children: map[string]*node{}}
			cur.children[key] = next
		}
		cur = next
	}
	return cur
}

// lengthKeys caches the first-layer routing keys for common token
// counts; building "len:N" per line was the last allocation on the
// zero-alloc match path.
var lengthKeys = func() (ks [128]string) {
	for n := range ks {
		ks[n] = "len:" + strconv.Itoa(n)
	}
	return
}()

func lengthKey(n int) string {
	if n >= 0 && n < len(lengthKeys) {
		return lengthKeys[n]
	}
	return "len:" + strconv.Itoa(n)
}

// similarity is Drain's simSeq: fraction of positions whose tokens match
// (wildcard template positions count as matches).
func similarity(tmpl, tokens []string) float64 {
	if len(tmpl) != len(tokens) || len(tmpl) == 0 {
		return 0
	}
	same := 0
	for i := range tmpl {
		if tmpl[i] == tokens[i] || tmpl[i] == Wildcard {
			same++
		}
	}
	return float64(same) / float64(len(tmpl))
}

// Train absorbs one log line and returns the group it joined (or
// founded). Tokenization reuses the parser's scratch buffer under the
// lock, so a training call allocates only when it founds a group.
func (p *Parser) Train(line string) *Group {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.frozen {
		panic("drain: Train on frozen parser")
	}
	p.tokBuf = appendFields(p.tokBuf[:0], line)
	tokens := p.tokBuf
	leaf := p.leafFor(tokens, true)

	var best *Group
	bestSim := 0.0
	for _, g := range leaf.groups {
		if s := similarity(g.tokens, tokens); s > bestSim {
			best, bestSim = g, s
		}
	}
	if best != nil && bestSim >= p.cfg.SimThreshold {
		// Merge: wildcard the differing positions.
		for i := range best.tokens {
			if best.tokens[i] != tokens[i] && best.tokens[i] != Wildcard {
				best.tokens[i] = Wildcard
			}
		}
		best.Count++
		return best
	}
	g := &Group{ID: p.nextID, Count: 1, tokens: append([]string(nil), tokens...)}
	p.nextID++
	leaf.groups = append(leaf.groups, g)
	p.groups = append(p.groups, g)
	return g
}

// Match routes a line to its group without updating any state. It
// returns nil when no group is similar enough. On a frozen parser the
// call is lock-free but allocates a token slice per line; batch callers
// should hold a Matcher instead.
func (p *Parser) Match(line string) *Group {
	if p.frozen {
		return p.matchTokens(appendFields(nil, line))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.tokBuf = appendFields(p.tokBuf[:0], line)
	return p.matchTokens(p.tokBuf)
}

// matchTokens is Match over pre-split tokens. Callers either hold p.mu
// or operate on a frozen parser.
func (p *Parser) matchTokens(tokens []string) *Group {
	leaf := p.leafFor(tokens, false)
	if leaf == nil {
		return nil
	}
	var best *Group
	bestSim := 0.0
	for _, g := range leaf.groups {
		if s := similarity(g.tokens, tokens); s > bestSim {
			best, bestSim = g, s
		}
	}
	if best == nil || bestSim < p.cfg.SimThreshold {
		return nil
	}
	return best
}

// Matcher is a single-goroutine match context over a frozen parser: it
// owns a reusable token buffer, so repeated Match calls are zero-alloc
// over the lock-free tree. Create one per classification worker.
type Matcher struct {
	p    *Parser
	toks []string
}

// Matcher returns a zero-alloc match context. The parser must be
// frozen: the matcher reads the tree without the mutex.
func (p *Parser) Matcher() *Matcher {
	if !p.frozen {
		panic("drain: Matcher on unfrozen parser")
	}
	return &Matcher{p: p}
}

// Match routes a line to its group, reusing the matcher's token buffer.
func (m *Matcher) Match(line string) *Group {
	m.toks = appendFields(m.toks[:0], line)
	return m.p.matchTokens(m.toks)
}

// Clone returns a deep copy of the parser: the clone and the original
// share no mutable state, so one can keep training while the other is
// frozen for a point-in-time snapshot (the online report path). Group
// IDs, counts, and template tokens are preserved exactly, which keeps
// a clone's classifications identical to the original's at clone time.
// The clone is unfrozen (trainable) regardless of the original's state.
func (p *Parser) Clone() *Parser {
	p.mu.Lock()
	defer p.mu.Unlock()
	q := &Parser{cfg: p.cfg, nextID: p.nextID}
	copies := make(map[*Group]*Group, len(p.groups))
	q.groups = make([]*Group, len(p.groups))
	for i, g := range p.groups {
		ng := &Group{ID: g.ID, Count: g.Count, tokens: append([]string(nil), g.tokens...)}
		copies[g] = ng
		q.groups[i] = ng
	}
	q.root = cloneNode(p.root, copies)
	return q
}

func cloneNode(n *node, copies map[*Group]*Group) *node {
	out := &node{children: make(map[string]*node, len(n.children))}
	for key, child := range n.children {
		out.children[key] = cloneNode(child, copies)
	}
	if len(n.groups) > 0 {
		out.groups = make([]*Group, len(n.groups))
		for i, g := range n.groups {
			out.groups[i] = copies[g]
		}
	}
	return out
}

// Groups returns all groups ordered by descending count (the paper's
// template ranking for manual labeling), ties broken by ID.
func (p *Parser) Groups() []*Group {
	if !p.frozen {
		p.mu.Lock()
		defer p.mu.Unlock()
	}
	out := make([]*Group, len(p.groups))
	copy(out, p.groups)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// NumGroups returns the number of mined templates.
func (p *Parser) NumGroups() int {
	if !p.frozen {
		p.mu.Lock()
		defer p.mu.Unlock()
	}
	return len(p.groups)
}
