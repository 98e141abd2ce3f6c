// Package breach is the reproduction's HaveIBeenPwned substitute: an
// in-memory corpus of leaked email addresses with membership queries.
// The paper flags a sender domain as a bulk spammer when more than 80%
// of its recipients appear in the leak corpus (Section 4.2.1); the
// analysis pipeline runs the same rule against this corpus.
package breach

import (
	"strings"
	"sync"
)

// Corpus is a set of leaked addresses. It is safe for concurrent use.
type Corpus struct {
	mu    sync.RWMutex
	leaks map[string]struct{}
}

// NewCorpus returns an empty corpus.
func NewCorpus() *Corpus {
	return &Corpus{leaks: make(map[string]struct{})}
}

func norm(addr string) string { return strings.ToLower(strings.TrimSpace(addr)) }

// Add records addr as leaked.
func (c *Corpus) Add(addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.leaks[norm(addr)] = struct{}{}
}

// PwnedShare returns the fraction of addrs present in the corpus, the
// statistic the bulk-spammer rule thresholds at 0.80.
func (c *Corpus) PwnedShare(addrs []string) float64 {
	if len(addrs) == 0 {
		return 0
	}
	hits := 0
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, a := range addrs {
		if _, ok := c.leaks[norm(a)]; ok {
			hits++
		}
	}
	return float64(hits) / float64(len(addrs))
}
