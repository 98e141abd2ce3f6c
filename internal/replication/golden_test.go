package replication

import (
	"bytes"
	"io"
	"os"
	"reflect"
	"testing"
)

// goldenUnits are the units testdata/brtl_v1.golden holds: a bare
// record, a named batch group and a payload that is not UTF-8.
var goldenUnits = []Unit{
	{Start: 40, Payloads: [][]byte{[]byte(`{"id":"r-40"}`)}},
	{Start: 41, ID: "batch-7", Payloads: [][]byte{[]byte(`{"id":"r-41"}`), []byte(`{"id":"r-42"}`), {}}},
	{Start: 44, ID: "\xff\xfe", Payloads: [][]byte{{0xff, 0x00, 0xc3, 0x28, '\n'}}},
}

// TestTailWriterGolden pins BRTL version 1 byte for byte: the writer
// must produce the committed stream, and the reader must return the
// units it was written from.
func TestTailWriterGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/brtl_v1.golden")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tw, err := NewTailWriter(&buf, 40)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range goldenUnits {
		if err := tw.Unit(u.Start, u.ID, u.Payloads); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.End(45, 3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("TailWriter wrote\n%x\nwant\n%x", buf.Bytes(), want)
	}

	tr, err := NewTailReader(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if tr.From != 40 {
		t.Fatalf("From = %d, want 40", tr.From)
	}
	for i, wu := range goldenUnits {
		u, end, err := tr.Next()
		if err != nil || end != nil {
			t.Fatalf("unit %d: %+v, %v", i, end, err)
		}
		if !reflect.DeepEqual(*u, wu) {
			t.Fatalf("unit %d = %+v, want %+v", i, *u, wu)
		}
	}
	if _, end, err := tr.Next(); err != nil || end == nil || *end != (End{LogEnd: 45, Epoch: 3}) {
		t.Fatalf("end = %+v, %v", end, err)
	}
	if _, _, err := tr.Next(); err != io.EOF {
		t.Fatalf("after the end frame: %v", err)
	}
}
