package typo

import (
	"strings"
	"testing"
)

// classifyByGeneration is Classify (ClassifyLocal when local) as it was
// before the one-edit test: generate every candidate of original, scan
// them in generation order for the lower-cased observed name.
func classifyByGeneration(observed, original string, local bool) (Kind, bool) {
	observed = strings.ToLower(observed)
	cands := Label(original)
	if !local && strings.ContainsRune(original, '.') {
		cands = Domain(original)
	}
	for _, c := range cands {
		if c.Name == observed {
			return c.Kind, true
		}
	}
	return KindNone, false
}

// cornerOriginals are the shapes generation treats differently: the
// paper's examples, upper case, several dots, a leading dot, labels of
// one character, hyphens, digits, runs of one letter, and bytes outside
// ASCII (lower-casing may change their length or replace them).
var cornerOriginals = []string{
	"yahoo.com.cn", "hotmail.com", "springer.com", "icloud.com",
	"HotMail.COM", "mail.example.co.uk", ".com", "a", "a.b",
	"my-site.org", "-a-.net", "163.com", "aaa.com", "john.smith",
	"alice_01", "münchen.de", "İstanbul.com", "\xff\xfe.com", "x.",
}

func checkAgainstGeneration(t *testing.T, observed, original string) {
	t.Helper()
	// The distance table is the test's own oracle: Similarity skips it
	// for a pair the test passes.
	if got, want := oneEditApart(observed, original), levenshtein(observed, original) == 1; got != want {
		t.Errorf("oneEditApart(%q, %q) = %v, distance %d", observed, original, got, levenshtein(observed, original))
	}
	wk, wok := classifyByGeneration(observed, original, false)
	if k, ok := Classify(observed, original); k != wk || ok != wok {
		t.Errorf("Classify(%q, %q) = %v %v, generation says %v %v", observed, original, k, ok, wk, wok)
	}
	wk, wok = classifyByGeneration(observed, original, true)
	if k, ok := ClassifyLocal(observed, original); k != wk || ok != wok {
		t.Errorf("ClassifyLocal(%q, %q) = %v %v, generation says %v %v", observed, original, k, ok, wk, wok)
	}
}

// FuzzClassifyMatchesGeneration: for any pair, Classify and
// ClassifyLocal answer exactly what a scan of the generated candidates
// answers, kind included. A pair drawn at random is almost never one
// edit apart, so each input also checks one generated candidate of its
// original, picked by the fuzzer.
func FuzzClassifyMatchesGeneration(f *testing.F) {
	for _, orig := range cornerOriginals {
		f.Add(orig, orig, uint16(0))
		f.Add("unrelated.example", orig, uint16(7))
		f.Add(strings.ToUpper(orig), orig, uint16(31))
	}
	f.Add("yaho.com.cn", "yahoo.com.cn", uint16(1))
	f.Add("lotmail.com", "hotmail.com", uint16(2))
	f.Add("springer.comm", "springer.com", uint16(3))
	f.Add("ICLOYD.com", "icloud.com", uint16(4))
	f.Add("alice.smth", "Alice.Smith", uint16(5))
	f.Add("mail.exmaple.co.uk", "mail.example.co.uk", uint16(6)) // a transposition outside the first label
	f.Add("ab", "ba", uint16(0))
	f.Add("", "", uint16(0))
	f.Add("a", "", uint16(0))

	f.Fuzz(func(t *testing.T, observed, original string, pick uint16) {
		if len(observed) > 64 || len(original) > 64 {
			return
		}
		checkAgainstGeneration(t, observed, original)
		for _, cands := range [][]Candidate{Domain(original), Label(original)} {
			if len(cands) > 0 {
				checkAgainstGeneration(t, cands[int(pick)%len(cands)].Name, original)
			}
		}
	})
}

// TestEveryCandidateIsOneEditAway: the test Classify runs first rejects
// nothing generation emits, exhaustively over the corner cases, and
// through it every candidate still classifies as the kind it was
// generated as.
func TestEveryCandidateIsOneEditAway(t *testing.T) {
	total := 0
	for _, orig := range cornerOriginals {
		lower := strings.ToLower(orig)
		for _, cands := range [][]Candidate{Domain(orig), Label(orig)} {
			for _, c := range cands {
				total++
				if !oneEditApart(c.Name, lower) {
					t.Errorf("candidate %q (%v) of %q is not one edit away", c.Name, c.Kind, orig)
				}
				checkAgainstGeneration(t, c.Name, orig)
			}
		}
	}
	if total < 1000 {
		t.Errorf("only %d candidates checked", total)
	}
}

func TestOneEditApart(t *testing.T) {
	for _, c := range []struct {
		a, b string
		want bool
	}{
		{"", "", false}, {"a", "a", false}, {"abc", "abc", false},
		{"", "a", true}, {"ab", "b", true}, {"ab", "a", true}, {"abc", "ac", true},
		{"abc", "abd", true}, {"abc", "xbc", true},
		{"ab", "ba", true}, {"abcd", "acbd", true},
		{"abcd", "badc", false}, {"abc", "cba", false}, {"abc", "a", false},
		{"abc", "abcde", false}, {"abcd", "abdce", false}, {"ab", "cd", false},
	} {
		if got := oneEditApart(c.a, c.b); got != c.want {
			t.Errorf("oneEditApart(%q, %q) = %v", c.a, c.b, got)
		}
		if got := oneEditApart(c.b, c.a); got != c.want {
			t.Errorf("oneEditApart(%q, %q) = %v", c.b, c.a, got)
		}
		if d := levenshtein(c.a, c.b); (d == 1) != c.want {
			t.Errorf("levenshtein(%q, %q) = %d, want one edit apart = %v", c.a, c.b, d, c.want)
		}
	}
}

// TestClassifyMissAllocatesNothing: a lower-case pair more than one
// edit apart — all but a few dozen of the never-resolved × popular
// pairings of a detection pass — is rejected without touching the heap.
func TestClassifyMissAllocatesNothing(t *testing.T) {
	for _, c := range []struct{ observed, original string }{
		{"mail-gateway7.example.net", "hotmail.com"},
		{"hotmial.con", "hotmail.com"}, // same length, two edits
		{"hotmail.com", "hotmail.com"},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			if _, ok := Classify(c.observed, c.original); ok {
				t.Fatal("matched")
			}
			if _, ok := ClassifyLocal(c.observed, c.original); ok {
				t.Fatal("matched")
			}
		})
		if allocs != 0 {
			t.Errorf("Classify(%q, %q) miss: %v allocations, want 0", c.observed, c.original, allocs)
		}
	}
}

// TestClassifyHitAllocatesNothing: a lower-case pair one edit apart is
// matched by walking the original's candidates in place, so a hit — a
// TLD repetition and a miss that is one edit apart among them — touches
// the heap no more than a far miss does.
func TestClassifyHitAllocatesNothing(t *testing.T) {
	for _, c := range []struct {
		observed, original string
		hit                bool
	}{
		{"lotmail.com", "hotmail.com", true},
		{"hotmail.comm", "hotmail.com", true},
		{"yaho.com.cn", "yahoo.com.cn", true},
		{"hotmaiz.com", "hotmail.com", false}, // one edit, of no kind
		{"alice.smth", "alice.smith", true},   // a local part's typo, no domain's
		{"alicr", "alice", true},
	} {
		wk, wok := classifyByGeneration(c.observed, c.original, false)
		lk, lok := classifyByGeneration(c.observed, c.original, true)
		if hit := wok || lok; hit != c.hit {
			t.Fatalf("%q as a typo of %q: generation says %v", c.observed, c.original, hit)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if k, ok := Classify(c.observed, c.original); k != wk || ok != wok {
				t.Fatalf("Classify(%q, %q) = %v %v", c.observed, c.original, k, ok)
			}
			if k, ok := ClassifyLocal(c.observed, c.original); k != lk || ok != lok {
				t.Fatalf("ClassifyLocal(%q, %q) = %v %v", c.observed, c.original, k, ok)
			}
		})
		if allocs != 0 {
			t.Errorf("Classify(%q, %q): %v allocations, want 0", c.observed, c.original, allocs)
		}
	}
}
