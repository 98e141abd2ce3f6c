package breach

import "testing"

func TestAddAndPwned(t *testing.T) {
	c := NewCorpus()
	c.Add("Alice@Example.com")
	if c.PwnedShare([]string{"alice@example.com"}) != 1 {
		t.Error("case-insensitive lookup failed")
	}
	if c.PwnedShare([]string{" alice@example.com "}) != 1 {
		t.Error("whitespace-tolerant lookup failed")
	}
	if c.PwnedShare([]string{"bob@example.com"}) != 0 {
		t.Error("unleaked address reported pwned")
	}
	if len(c.leaks) != 1 {
		t.Errorf("Len = %d", len(c.leaks))
	}
}

func TestAddIdempotent(t *testing.T) {
	c := NewCorpus()
	c.Add("a@b.com")
	c.Add("A@B.COM")
	if len(c.leaks) != 1 {
		t.Errorf("duplicate adds grew corpus: %d", len(c.leaks))
	}
}

func TestPwnedShare(t *testing.T) {
	c := NewCorpus()
	for _, a := range []string{"a@x.com", "b@x.com", "c@x.com", "d@x.com"} {
		c.Add(a)
	}
	addrs := []string{"a@x.com", "b@x.com", "c@x.com", "d@x.com", "fresh@x.com"}
	if got := c.PwnedShare(addrs); got != 0.8 {
		t.Errorf("PwnedShare = %g want 0.8", got)
	}
	if got := c.PwnedShare(nil); got != 0 {
		t.Errorf("PwnedShare(nil) = %g", got)
	}
}

func TestBulkSpammerRule(t *testing.T) {
	// The paper's rule: >80% of a sender's recipients in the corpus.
	c := NewCorpus()
	var recipients []string
	for i := 0; i < 100; i++ {
		addr := "victim" + string(rune('a'+i%26)) + string(rune('0'+i/26)) + "@leak.com"
		recipients = append(recipients, addr)
		if i < 85 {
			c.Add(addr)
		}
	}
	if c.PwnedShare(recipients) <= 0.80 {
		t.Error("85% leaked recipients should exceed the bulk-spammer threshold")
	}
}
