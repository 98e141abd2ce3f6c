package typo

import "testing"

// osaTable is the optimal-string-alignment distance as a plain table of
// three freshly made rows: the definition Similarity's distance is held
// to.
func osaTable(a, b string) int {
	prev2 := make([]int, len(b)+1)
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
			if i > 1 && j > 1 && a[i-1] == b[j-2] && a[i-2] == b[j-1] {
				cur[j] = min(cur[j], prev2[j-2]+1)
			}
		}
		prev2, prev, cur = prev, cur, prev2
	}
	return prev[len(b)]
}

// similarityByTable is Similarity computed from osaTable.
func similarityByTable(a, b string) float64 {
	longest := max(len(a), len(b))
	if longest == 0 {
		return 1
	}
	return 1 - float64(osaTable(a, b))/float64(longest)
}

// FuzzSimilarityMatchesTable: for any pair of names, short enough for
// the stack rows or not, Similarity equals the plain table's answer.
func FuzzSimilarityMatchesTable(f *testing.F) {
	for _, c := range [][2]string{
		{"", ""}, {"a", ""}, {"alice", "alce"}, {"ab", "ba"}, {"kitten", "sitting"},
		{"flaw", "lawn"}, {"alice.smith", "alice.smth"}, {"u12", "u13"},
		{string(make([]byte, 64)), "x"}, {"y", string(make([]byte, 65))},
	} {
		f.Add(c[0], c[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		if len(a) > 200 || len(b) > 200 {
			return
		}
		if got, want := Similarity(a, b), similarityByTable(a, b); got != want {
			t.Errorf("Similarity(%q, %q) = %v, the table says %v", a, b, got, want)
		}
	})
}

// TestSimilarityAllocatesNothing: for names up to 64 bytes the distance
// table's rows live on the stack.
func TestSimilarityAllocatesNothing(t *testing.T) {
	long := "a-local-part-of-exactly-sixty-four-bytes-which-rfc-5321-allows.."
	if len(long) != 64 {
		t.Fatalf("long is %d bytes", len(long))
	}
	for _, c := range [][2]string{
		{"alice.smith", "alice.smth"}, {"u12", "u13"}, {"alice", "bob"},
		{long, "a-local-part"}, {"a-local-part", long},
	} {
		if n := testing.AllocsPerRun(100, func() { Similarity(c[0], c[1]) }); n != 0 {
			t.Errorf("Similarity(%q, %q): %v allocations, want 0", c[0], c[1], n)
		}
	}
}
