package typo

import "testing"

func BenchmarkDomainCandidates(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Domain("hotmail.com")
	}
}

func BenchmarkClassify(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := Classify("lotmail.com", "hotmail.com"); !ok {
			b.Fatal("no match")
		}
	}
}

func BenchmarkSimilarity(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Similarity("alice.smith", "alice.smth")
	}
}

// BenchmarkClassifyMiss times what a detection pass mostly does: a
// pair that is no typo of one another.
func BenchmarkClassifyMiss(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := Classify("mail-gateway7.example.net", "hotmail.com"); ok {
			b.Fatal("match")
		}
	}
}
