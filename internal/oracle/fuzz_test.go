package oracle

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"socrm/internal/snap"
)

// decodeLabels decodes a memo payload the way the disk tier accepts one
// (the codec must consume every byte) and reports the bytes the decode
// allocated.
func decodeLabels(data []byte) (v any, allocated uint64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d := snap.NewDecoder(data)
	v, err = labelCodec{}.Decode(d)
	if err == nil && d.Remaining() != 0 {
		err = fmt.Errorf("%d trailing bytes", d.Remaining())
	}
	runtime.ReadMemStats(&after)
	return v, after.TotalAlloc - before.TotalAlloc, err
}

// allocBound is what a decode of n input bytes may allocate: the label
// slice is no larger than its encoding, plus slack for the error value and
// runtime noise.
func allocBound(n int) uint64 { return 2*uint64(n) + 64<<10 }

func TestLabelCodecRejectsOversizeCountCheaply(t *testing.T) {
	var e snap.Encoder
	e.Int(1 << 22) // a count with no labels behind it
	_, allocated, err := decodeLabels(e.Bytes())
	if err == nil {
		t.Fatal("decoded 1<<22 labels from an 8-byte payload")
	}
	if allocated > allocBound(e.Len()) {
		t.Fatalf("rejecting an 8-byte payload allocated %d bytes", allocated)
	}
}

// FuzzLabelCodec feeds arbitrary bytes to the memo disk tier's label
// decoder: it must never panic, must allocate in proportion to its input,
// and every payload it accepts must re-encode to the same bytes.
func FuzzLabelCodec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		v, allocated, err := decodeLabels(data)
		if allocated > allocBound(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), allocated)
		}
		if err != nil {
			return
		}
		var e snap.Encoder
		labelCodec{}.Encode(&e, v)
		if !bytes.Equal(e.Bytes(), data) {
			t.Fatalf("accepted payload re-encodes differently:\n in  %x\n out %x", data, e.Bytes())
		}
	})
}
