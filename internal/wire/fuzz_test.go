package wire

import (
	"bytes"
	"testing"
)

// fuzzSeedDiffs are valid encodings covering every section of the
// diff format, so the fuzzer starts from structurally interesting
// inputs rather than pure noise.
func fuzzSeedDiffs() []*SegmentDiff {
	return []*SegmentDiff{
		{},
		{Version: 1},
		{
			Version: 7,
			Descs:   []DescDef{{Serial: 1, Bytes: []byte{1, 2, 3}}},
			News:    []NewBlock{{Serial: 1, DescSerial: 1, Count: 4, Name: "blk"}},
			Freed:   []uint32{9, 12},
			Blocks: []BlockDiff{{Serial: 1, Runs: []Run{
				{Start: 0, Count: 1, Data: []byte{0, 0, 0, 1}},
				{Start: 3, Count: 1, Data: []byte{0, 0, 0, 2}},
			}}},
		},
		{
			Version: 2,
			News:    []NewBlock{{Serial: 5, DescSerial: 2, Count: 1, Name: ""}},
			Blocks: []BlockDiff{{Serial: 5, Runs: []Run{
				{Start: 0, Count: 2, Data: []byte{0, 3, 'h', 'i', 0, 0}},
			}}},
		},
	}
}

// FuzzWireDecode feeds arbitrary bytes to the segment-diff decoder: a
// malformed diff arriving off a faulty link must produce an error,
// never a panic or a huge allocation. Valid inputs must round-trip.
func FuzzWireDecode(f *testing.F) {
	for _, d := range fuzzSeedDiffs() {
		f.Add(d.Marshal(nil))
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := UnmarshalSegmentDiff(data)
		if err != nil {
			return
		}
		// Whatever decoded must re-encode and decode to the same bytes
		// — the decoder may not invent state it cannot represent.
		out := d.Marshal(nil)
		if d.MarshalSize() != len(out) {
			t.Fatalf("MarshalSize = %d, encoding is %d bytes", d.MarshalSize(), len(out))
		}
		d2, err := UnmarshalSegmentDiff(out)
		if err != nil {
			t.Fatalf("re-decoding own encoding: %v", err)
		}
		if !bytes.Equal(out, d2.Marshal(nil)) {
			t.Fatalf("unstable encoding:\n  first %x\n  second %x", out, d2.Marshal(nil))
		}
	})
}

// TestFuzzSeedsRoundtrip keeps the seed corpus honest in normal test
// runs (the fuzz engine only checks them under -fuzz).
func TestFuzzSeedsRoundtrip(t *testing.T) {
	for i, d := range fuzzSeedDiffs() {
		enc := d.Marshal(nil)
		got, err := UnmarshalSegmentDiff(enc)
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		if !bytes.Equal(enc, got.Marshal(nil)) {
			t.Errorf("seed %d: encoding not stable", i)
		}
	}
}
