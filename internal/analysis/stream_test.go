package analysis

import (
	"reflect"
	"testing"

	"repro/internal/dataset"
)

// TestNewFromSourceMatchesNew: the single-pass streaming constructor
// must produce the same analysis as the slice constructor — same
// classifications, same rank, same tables and figures.
func TestNewFromSourceMatchesNew(t *testing.T) {
	records := testCorpus()
	slice := New(records, nil)

	pipe := dataset.NewPipe(8)
	go func() {
		for i := range records {
			pipe.Write(&records[i])
		}
		pipe.Close()
	}()
	streamed := NewFromSource(pipe, DefaultPipelineConfig(), nil)

	if streamed.Records.Len() != slice.Records.Len() {
		t.Fatalf("streamed %d records, slice %d", streamed.Records.Len(), slice.Records.Len())
	}
	if !reflect.DeepEqual(streamed.Classified, slice.Classified) {
		t.Fatal("classifications differ between streaming and slice constructors")
	}
	if !reflect.DeepEqual(streamed.InEmailRank(), slice.InEmailRank()) {
		t.Fatal("popularity rank differs between streaming and slice constructors")
	}
	if !sameResults(streamed, slice) {
		t.Fatal("tables and figures differ between streaming and slice constructors")
	}
}
