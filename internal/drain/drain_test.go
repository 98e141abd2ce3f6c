package drain

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/ndr"
)

func TestSameShapeMessagesMerge(t *testing.T) {
	p := New(DefaultConfig())
	p.Train("550 5.1.1 user alice not found")
	p.Train("550 5.1.1 user bob not found")
	p.Train("550 5.1.1 user carol not found")
	if n := p.NumGroups(); n != 1 {
		t.Fatalf("groups = %d want 1", n)
	}
	g := p.Groups()[0]
	if g.Count != 3 {
		t.Errorf("count = %d", g.Count)
	}
	tmpl := g.Template()
	if !strings.Contains(tmpl, Wildcard) {
		t.Errorf("template lacks wildcard: %q", tmpl)
	}
	if !strings.Contains(tmpl, "not found") {
		t.Errorf("template lost constant part: %q", tmpl)
	}
}

func TestDifferentLengthsNeverMerge(t *testing.T) {
	p := New(DefaultConfig())
	p.Train("550 user unknown")
	p.Train("550 user unknown here today")
	if n := p.NumGroups(); n != 2 {
		t.Errorf("groups = %d want 2 (length layer separates)", n)
	}
}

func TestDissimilarMessagesSeparate(t *testing.T) {
	p := New(DefaultConfig())
	p.Train("550 mailbox full quota exceeded")
	p.Train("421 connection timed out talking")
	if n := p.NumGroups(); n != 2 {
		t.Errorf("groups = %d want 2", n)
	}
}

func TestDigitTokensRouteAsWildcard(t *testing.T) {
	// Messages identical except for a digit-bearing token in the routing
	// prefix must land in one group (the preprocessing step).
	p := New(DefaultConfig())
	p.Train("ip 1.2.3.4 blocked using Spamhaus")
	p.Train("ip 5.6.7.8 blocked using Spamhaus")
	if n := p.NumGroups(); n != 1 {
		t.Errorf("groups = %d want 1", n)
	}
}

func TestMatchDoesNotMutate(t *testing.T) {
	p := New(DefaultConfig())
	p.Train("550 user alice not found")
	p.Train("550 user bob not found")
	before := p.Groups()[0].Count
	g := p.Match("550 user zed not found")
	if g == nil {
		t.Fatal("Match failed to route")
	}
	if p.Groups()[0].Count != before {
		t.Error("Match mutated group count")
	}
	if p.Match("completely unrelated line with many many tokens") != nil {
		t.Error("Match invented a group for unseen shape")
	}
}

func TestGroupsSortedByCount(t *testing.T) {
	p := New(DefaultConfig())
	for i := 0; i < 5; i++ {
		p.Train(fmt.Sprintf("452 mailbox %c over quota", 'a'+i))
	}
	p.Train("421 totally different line")
	gs := p.Groups()
	if gs[0].Count < gs[len(gs)-1].Count {
		t.Error("groups not sorted by count")
	}
	if gs[0].Count != 5 {
		t.Errorf("top group count %d want 5", gs[0].Count)
	}
}

func TestMaxChildrenOverflowUsesWildcard(t *testing.T) {
	p := New(Config{Depth: 4, SimThreshold: 0.4, MaxChildren: 3})
	// 10 distinct first tokens exceed MaxChildren=3; overflow shares the
	// wildcard child instead of exploding the tree.
	for i := 0; i < 10; i++ {
		p.Train(fmt.Sprintf("tok%c same tail tokens here", 'a'+i))
	}
	if p.NumGroups() > 10 {
		t.Errorf("groups = %d", p.NumGroups())
	}
	// All trained lines must still Match.
	if p.Match("toka same tail tokens here") == nil {
		t.Error("pre-overflow line unmatched")
	}
	if p.Match("tokz same tail tokens here") == nil {
		t.Error("overflow-path line unmatched")
	}
}

func TestTokensReturnsCopy(t *testing.T) {
	p := New(DefaultConfig())
	g := p.Train("550 user alice not found")
	toks := g.Tokens()
	toks[0] = "mutated"
	if g.Template()[:3] != "550" {
		t.Error("Tokens() leaked internal slice")
	}
}

func TestNDRCorpusClustersToCatalogScale(t *testing.T) {
	// Rendering every catalog template with varying parameters must
	// yield roughly one Drain group per catalog template — the mining
	// step the paper's pipeline depends on.
	p := New(DefaultConfig())
	for round := 0; round < 50; round++ {
		for i := range ndr.Catalog {
			params := ndr.Params{
				Addr:   fmt.Sprintf("user%d@dom%d.com", round, round),
				Local:  fmt.Sprintf("user%d", round),
				Domain: fmt.Sprintf("dom%d.com", round),
				IP:     fmt.Sprintf("9.%d.%d.7", round%250, (round*3)%250),
				MX:     fmt.Sprintf("mx%d.dom%d.com", round%3, round),
				BL:     "Spamhaus",
				Vendor: fmt.Sprintf("v%d-%d", round, i),
				Sec:    "300",
				Size:   "10485760",
			}
			p.Train(ndr.Catalog[i].Render(params))
		}
	}
	n := p.NumGroups()
	if n < len(ndr.Catalog)/2 || n > len(ndr.Catalog)*2 {
		t.Errorf("catalog of %d templates mined into %d groups", len(ndr.Catalog), n)
	}
	// The dominant groups must absorb full rounds.
	if top := p.Groups()[0]; top.Count < 50 {
		t.Errorf("top group count %d want >= 50", top.Count)
	}
}

func TestDefaultsApplied(t *testing.T) {
	p := New(Config{})
	if p.cfg.Depth != 4 || p.cfg.SimThreshold != 0.4 || p.cfg.MaxChildren != 100 {
		t.Errorf("defaults not applied: %+v", p.cfg)
	}
}

func TestSimilarity(t *testing.T) {
	cases := []struct {
		a, b []string
		want float64
	}{
		{[]string{"a", "b"}, []string{"a", "b"}, 1},
		{[]string{"a", Wildcard}, []string{"a", "x"}, 1},
		{[]string{"a", "b"}, []string{"a", "x"}, 0.5},
		{[]string{"a"}, []string{"a", "b"}, 0},
		{nil, nil, 0},
	}
	for _, c := range cases {
		if got := similarity(c.a, c.b); got != c.want {
			t.Errorf("similarity(%v,%v)=%g want %g", c.a, c.b, got, c.want)
		}
	}
}

func TestTrainCountInvariant(t *testing.T) {
	// Property: group counts always sum to the number of trained lines,
	// and every trained line still matches some group.
	f := func(seeds []uint16) bool {
		p := New(DefaultConfig())
		lines := make([]string, 0, len(seeds))
		for _, s := range seeds {
			line := fmt.Sprintf("%d code %d mailbox m%d unavailable", 400+int(s)%200, s%10, s)
			lines = append(lines, line)
			p.Train(line)
		}
		sum := 0
		for _, g := range p.Groups() {
			sum += g.Count
		}
		if sum != len(lines) {
			return false
		}
		for _, l := range lines {
			if p.Match(l) == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCloneIsIndependentAndIdentical(t *testing.T) {
	p := New(DefaultConfig())
	lines := []string{
		"550 5.1.1 user alice not found",
		"550 5.1.1 user bob not found",
		"421 4.7.0 try again later",
		"554 5.7.1 message rejected as spam",
	}
	for _, l := range lines {
		p.Train(l)
	}
	q := p.Clone()

	// The clone matches exactly what the original matched at clone time.
	for _, l := range lines {
		pg, qg := p.Match(l), q.Match(l)
		if pg == nil || qg == nil {
			t.Fatalf("Match(%q) lost after clone: orig=%v clone=%v", l, pg, qg)
		}
		if pg.ID != qg.ID || pg.Count != qg.Count || pg.Template() != qg.Template() {
			t.Fatalf("clone group differs for %q: orig{%d %d %q} clone{%d %d %q}",
				l, pg.ID, pg.Count, pg.Template(), qg.ID, qg.Count, qg.Template())
		}
	}

	// Training the original must not leak into the clone, and vice versa.
	p.Train("550 5.2.2 mailbox dave full")
	if p.NumGroups() != q.NumGroups()+1 {
		t.Fatalf("clone group count %d after original trained a new line, want %d", q.NumGroups(), p.NumGroups()-1)
	}
	q.Train("451 4.3.2 system not accepting network messages")
	if g := q.Match("550 5.2.2 mailbox dave full"); g != nil {
		t.Fatalf("clone learned the original's post-clone line: %q", g.Template())
	}
	if g := p.Match("451 4.3.2 system not accepting network messages"); g != nil {
		t.Fatalf("original learned the clone's post-clone line: %q", g.Template())
	}
}

// TestFrozenMatchConcurrent: after Freeze, Match and Groups run
// lock-free; hammer them from several goroutines under -race.
func TestFrozenMatchConcurrent(t *testing.T) {
	p := New(Config{})
	lines := make([]string, 40)
	for i := range lines {
		lines[i] = fmt.Sprintf("550 user u%d unknown on host h%d", i, i%5)
		p.Train(lines[i])
	}
	want := make([]*Group, len(lines))
	for i, l := range lines {
		want[i] = p.Match(l)
	}
	p.Freeze()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				for i, l := range lines {
					if g := p.Match(l); g != want[i] {
						t.Errorf("frozen Match diverged for %q", l)
						return
					}
				}
				p.Groups()
			}
		}()
	}
	wg.Wait()
}

func TestTrainOnFrozenPanics(t *testing.T) {
	p := New(Config{})
	p.Train("550 user unknown")
	p.Freeze()
	defer func() {
		if recover() == nil {
			t.Fatal("Train on frozen parser did not panic")
		}
	}()
	p.Train("550 another line")
}
