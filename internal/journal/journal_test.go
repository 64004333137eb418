package journal

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"interweave/internal/protocol"
	"interweave/internal/wire"
)

// rec builds a representative journal record: a Replicate frame
// advancing seg from prev to ver with one small int32 run.
func rec(seg string, prev, ver uint32) *protocol.Replicate {
	data := wire.AppendU32(nil, ver)
	return &protocol.Replicate{
		Seg:         seg,
		PrevVersion: prev,
		Version:     ver,
		Diff: &wire.SegmentDiff{
			Version: ver,
			Blocks:  []wire.BlockDiff{{Serial: 1, Runs: []wire.Run{{Start: 0, Count: 1, Data: data}}}},
		},
		Applied: []protocol.AppliedEntry{{WriterID: "w", Seq: ver, Version: ver}},
	}
}

func openStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func logFile(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), LogSuffix) {
			return filepath.Join(dir, e.Name())
		}
	}
	t.Fatal("no log file written")
	return ""
}

func TestAppendWindowReload(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	l, err := s.Segment("seg/a")
	if err != nil {
		t.Fatal(err)
	}
	for v := uint32(1); v <= 3; v++ {
		if err := l.Append(rec("seg/a", v-1, v)); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(l.Window(0)); got != 3 {
		t.Fatalf("Window(0) has %d records, want 3", got)
	}
	if got := l.Window(1); len(got) != 2 || got[0].Version != 2 || got[1].Version != 3 {
		t.Fatalf("Window(1) = %d records (want versions 2,3)", len(got))
	}
	if l.Size() <= 0 {
		t.Fatal("Size reports empty after appends")
	}
	// Window decodes fresh messages: a caller mutating one leaves the
	// journal's record alone.
	w1 := l.Window(2)
	w1[0].Epoch, w1[0].Applied[0].WriterID = 99, "changed"
	if again := l.Window(2); again[0].Epoch == 99 || again[0].Applied[0].WriterID != "w" {
		t.Fatal("mutating a Window record changed the journal's window")
	}

	// A fresh store over the same directory sees the same records.
	s2 := openStore(t, dir)
	if got := s2.Segments(); len(got) != 1 || got[0] != "seg/a" {
		t.Fatalf("Segments = %v", got)
	}
	l2, err := s2.Segment("seg/a")
	if err != nil {
		t.Fatal(err)
	}
	w := l2.Window(0)
	if len(w) != 3 || w[2].Version != 3 || w[2].Diff == nil || w[2].Applied[0].WriterID != "w" {
		t.Fatalf("reloaded window = %+v", w)
	}
	if l2.DroppedTail() {
		t.Error("clean log reported a dropped tail")
	}
}

func TestTornTailTruncatedOnLoad(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	l, _ := s.Segment("seg/t")
	for v := uint32(1); v <= 2; v++ {
		if err := l.Append(rec("seg/t", v-1, v)); err != nil {
			t.Fatal(err)
		}
	}
	path := logFile(t, dir)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a torn append: half of a third record lands.
	third := protocol.MarshalMessage(nil, rec("seg/t", 2, 3))
	torn := appendRecord(append([]byte(nil), clean...), third)
	torn = torn[:len(clean)+recordHeader+len(third)/2]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir)
	l2, _ := s2.Segment("seg/t")
	if !l2.DroppedTail() {
		t.Error("torn tail not reported")
	}
	if got := len(l2.Window(0)); got != 2 {
		t.Fatalf("recovered %d records, want 2", got)
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, clean) {
		t.Fatalf("torn tail not truncated: %d bytes on disk, want %d", len(onDisk), len(clean))
	}
	// Appends continue cleanly on the truncated file.
	if err := l2.Append(rec("seg/t", 2, 3)); err != nil {
		t.Fatal(err)
	}
	s3 := openStore(t, dir)
	l3, _ := s3.Segment("seg/t")
	if got := len(l3.Window(0)); got != 3 || l3.DroppedTail() {
		t.Fatalf("after post-truncation append: %d records, torn=%v", got, l3.DroppedTail())
	}
}

func TestCompactKeepsRecordsPastBase(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	l, _ := s.Segment("seg/c")
	for v := uint32(1); v <= 3; v++ {
		if err := l.Append(rec("seg/c", v-1, v)); err != nil {
			t.Fatal(err)
		}
	}
	base := []byte("sealed-base-at-2")
	if err := l.Compact(2, base); err != nil {
		t.Fatal(err)
	}
	got, ok, err := l.Base()
	if err != nil || !ok || !bytes.Equal(got, base) {
		t.Fatalf("Base = %q ok=%v err=%v", got, ok, err)
	}
	if w := l.Window(0); len(w) != 1 || w[0].Version != 3 {
		t.Fatalf("post-compaction window = %+v", w)
	}
	// Reload: the residual record survives on disk too.
	s2 := openStore(t, dir)
	l2, _ := s2.Segment("seg/c")
	if w := l2.Window(0); len(w) != 1 || w[0].Version != 3 {
		t.Fatalf("reloaded post-compaction window has %d records", len(w))
	}
	// Compacting at the head version empties the log entirely.
	if err := l2.Compact(3, []byte("sealed-base-at-3")); err != nil {
		t.Fatal(err)
	}
	if l2.Size() != 0 || len(l2.Window(0)) != 0 {
		t.Fatalf("full compaction left size=%d window=%d", l2.Size(), len(l2.Window(0)))
	}
}

func TestResetDiscardsEverything(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	l, _ := s.Segment("seg/r")
	if err := l.Append(rec("seg/r", 0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(1, []byte("base")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec("seg/r", 1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := l.Base(); ok {
		t.Error("base survived Reset")
	}
	if len(l.Window(0)) != 0 || l.Size() != 0 {
		t.Error("log survived Reset")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("Reset left files behind: %v", entries)
	}
}

func TestNeedsCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{CompactBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	l, _ := s.Segment("seg/n")
	if l.NeedsCompaction() {
		t.Error("empty log wants compaction")
	}
	for v := uint32(1); v <= 4; v++ {
		if err := l.Append(rec("seg/n", v-1, v)); err != nil {
			t.Fatal(err)
		}
	}
	if !l.NeedsCompaction() {
		t.Errorf("log of %d bytes under a 64-byte threshold does not want compaction", l.Size())
	}
}

// TestScanRecordsEveryPrefix is the byte-boundary half of the torn-
// write simulator: every truncation of a valid log must scan to
// exactly the records whose final byte survived, reporting torn for
// any cut that leaves a partial record.
func TestScanRecordsEveryPrefix(t *testing.T) {
	var image []byte
	var boundaries []int // offsets at which a record ends
	for v := uint32(1); v <= 3; v++ {
		image = appendRecord(image, protocol.MarshalMessage(nil, rec("seg/p", v-1, v)))
		boundaries = append(boundaries, len(image))
	}
	for cut := 0; cut <= len(image); cut++ {
		wantRecs := 0
		for _, b := range boundaries {
			if b <= cut {
				wantRecs++
			}
		}
		atBoundary := cut == 0
		for _, b := range boundaries {
			if b == cut {
				atBoundary = true
			}
		}
		recs, valid, torn := ScanRecords(image[:cut])
		if len(recs) != wantRecs {
			t.Fatalf("cut %d: %d records, want %d", cut, len(recs), wantRecs)
		}
		if torn == atBoundary {
			t.Fatalf("cut %d: torn=%v, want %v", cut, torn, !atBoundary)
		}
		wantValid := 0
		if wantRecs > 0 {
			wantValid = boundaries[wantRecs-1]
		}
		if valid != wantValid {
			t.Fatalf("cut %d: valid prefix %d, want %d", cut, valid, wantValid)
		}
	}
}

// FuzzJournalDecode throws truncations, bit flips, and garbage at the
// record scanner: it must never panic, must report a valid prefix no
// longer than the input, and re-scanning exactly that prefix must
// parse fully and identically.
func FuzzJournalDecode(f *testing.F) {
	var image []byte
	for v := uint32(1); v <= 3; v++ {
		image = appendRecord(image, protocol.MarshalMessage(nil, rec("seg/f", v-1, v)))
	}
	f.Add(image)
	f.Add(image[:len(image)-3])
	f.Add([]byte{})
	f.Add([]byte("garbage that is definitely not a journal"))
	flipped := append([]byte(nil), image...)
	flipped[len(flipped)/2] ^= 0x20
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, valid, torn := ScanRecords(data)
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid prefix %d out of range [0,%d]", valid, len(data))
		}
		if !torn && valid != len(data) {
			t.Fatalf("not torn but valid prefix %d != %d", valid, len(data))
		}
		recs2, valid2, torn2 := ScanRecords(data[:valid])
		if torn2 || valid2 != valid || len(recs2) != len(recs) {
			t.Fatalf("re-scan of valid prefix: %d records valid=%d torn=%v, want %d records valid=%d torn=false",
				len(recs2), valid2, torn2, len(recs), valid)
		}
		for _, r := range recs {
			if r == nil {
				t.Fatal("nil record in valid prefix")
			}
		}
	})
}

// BenchmarkJournalAppend measures the per-release durability cost: a
// sealed record of a representative small diff written (no fsync)
// through the append path.
func BenchmarkJournalAppend(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	l, err := s.Segment("bench/append")
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 1024)
	for i := range data {
		data[i] = byte(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := uint32(i + 1)
		m := &protocol.Replicate{
			Seg:         "bench/append",
			PrevVersion: v - 1,
			Version:     v,
			Diff: &wire.SegmentDiff{
				Version: v,
				Blocks:  []wire.BlockDiff{{Serial: 1, Runs: []wire.Run{{Start: 0, Count: 256, Data: data}}}},
			},
		}
		if err := l.Append(m); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(recordHeader + len(protocol.MarshalMessage(nil, m))))
	}
}
