package server

// Property test for the diff cache's merged-forward path: on random
// histories of applied diffs — block creates, multi-run
// modifications, frees — the diff served by merging cached diffs
// (mergeCachedDiffs) must be equivalent to a fresh full collection
// (collectFull) from the same version: applying either to a clone of
// the segment at that version must reproduce the master's exact data.
// Cache capacities are swept so the merge window's eviction boundary
// (sinceVer falling just inside or just outside the cached span) is
// exercised on every history.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"interweave/internal/wire"
)

// segFingerprint captures a segment's observable data: version and,
// per block in serial order, identity plus every unit's value. It
// deliberately excludes subblock version stamps — the merged path is
// unit-accurate while the full path rounds to subblocks, so the two
// legitimately stamp different subblocks; the data must still agree.
func segFingerprint(s *Segment) []byte {
	var buf []byte
	buf = wire.AppendU32(buf, s.Version)
	for _, b := range s.Blocks() {
		buf = wire.AppendU32(buf, b.Serial)
		buf = wire.AppendString(buf, b.Name)
		buf = wire.AppendU32(buf, b.DescSerial)
		buf = wire.AppendU32(buf, uint32(b.Count))
		buf = b.appendUnits(buf, 0, b.Units())
	}
	return buf
}

// cloneDiff deep-copies a diff through its wire form, so applying it
// cannot mutate the original (applyDiffAt remaps descriptor serials
// in place).
func cloneDiff(t *testing.T, d *wire.SegmentDiff) *wire.SegmentDiff {
	t.Helper()
	out, err := wire.UnmarshalSegmentDiff(d.Marshal(nil))
	if err != nil {
		t.Fatalf("diff did not round-trip: %v", err)
	}
	return out
}

// applyToClone decodes the segment image and applies the diff at its
// stamped version, returning the resulting fingerprint.
func applyToClone(t *testing.T, img []byte, d *wire.SegmentDiff) []byte {
	t.Helper()
	clone, err := decodeSegment(img)
	if err != nil {
		t.Fatal(err)
	}
	dd := cloneDiff(t, d)
	if _, err := clone.ApplyReplicatedDiff(dd, dd.Version); err != nil {
		t.Fatalf("applying diff at version %d: %v", dd.Version, err)
	}
	return segFingerprint(clone)
}

// propState tracks the live blocks of the generated history.
type propState struct {
	nextSerial uint32
	live       []uint32       // serials of live int blocks
	counts     map[uint32]int // serial -> element count
}

// randomStep builds one random diff: create a block (30%, always on
// an empty segment), free one (10%), or modify one with 1–2
// non-overlapping runs.
func randomStep(t *testing.T, rng *rand.Rand, st *propState) *wire.SegmentDiff {
	t.Helper()
	roll := rng.Intn(100)
	switch {
	case len(st.live) == 0 || roll < 30:
		n := 1 + rng.Intn(40)
		serial := st.nextSerial
		st.nextSerial++
		st.live = append(st.live, serial)
		st.counts[serial] = n
		vals := make([]uint32, n)
		for i := range vals {
			vals[i] = rng.Uint32()
		}
		return intsDiff(t, 7, serial, n, fmt.Sprintf("b%d", serial), vals...)
	case roll < 40 && len(st.live) > 1:
		i := rng.Intn(len(st.live))
		serial := st.live[i]
		st.live = append(st.live[:i], st.live[i+1:]...)
		delete(st.counts, serial)
		return &wire.SegmentDiff{Freed: []uint32{serial}}
	default:
		serial := st.live[rng.Intn(len(st.live))]
		units := st.counts[serial]
		var runs []wire.Run
		mkRun := func(lo, hi int) {
			if hi <= lo {
				return
			}
			start := lo + rng.Intn(hi-lo)
			count := 1 + rng.Intn(hi-start)
			data := make([]byte, 0, count*4)
			for i := 0; i < count; i++ {
				data = wire.AppendU32(data, rng.Uint32())
			}
			runs = append(runs, wire.Run{Start: uint32(start), Count: uint32(count), Data: data})
		}
		if units >= 4 && rng.Intn(2) == 0 {
			mkRun(0, units/2)
			mkRun(units/2, units)
		} else {
			mkRun(0, units)
		}
		return &wire.SegmentDiff{Blocks: []wire.BlockDiff{{Serial: serial, Runs: runs}}}
	}
}

func TestMergeCachedDiffsProperty(t *testing.T) {
	caps := []int{1, 2, 3, 4, 6, 8, 12, 100, 0}
	for seed := int64(0); seed < int64(len(caps)); seed++ {
		cacheCap := caps[seed]
		t.Run(fmt.Sprintf("seed=%d,cap=%d", seed, cacheCap), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed*7919 + 13))
			master := NewSegment("prop")
			master.SetDiffCacheCap(cacheCap)
			st := &propState{nextSerial: 1, counts: make(map[uint32]int)}

			// Image of the segment at every version, for lagging clones.
			images := map[uint32][]byte{0: master.encode()}
			steps := 16 + rng.Intn(12)
			for i := 0; i < steps; i++ {
				d := randomStep(t, rng, st)
				if _, _, err := master.ApplyDiff(d); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				if err := master.checkListSorted(); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				images[master.Version] = master.encode()
			}
			want := segFingerprint(master)

			merges := 0
			for since := uint32(0); since < master.Version; since++ {
				// Direct comparison: when the cached window covers this
				// version span, the merged diff and the fresh full
				// collection must both reconstruct the master exactly.
				if md, ok := master.mergeCachedDiffs(since); ok {
					merges++
					fd, err := master.collectFull(since)
					if err != nil {
						t.Fatal(err)
					}
					if got := applyToClone(t, images[since], md); !bytes.Equal(got, want) {
						t.Errorf("since=%d: merged diff diverges from master", since)
					}
					if got := applyToClone(t, images[since], fd); !bytes.Equal(got, want) {
						t.Errorf("since=%d: full collection diverges from master", since)
					}
				}
				// End-to-end: whatever path CollectDiff picks (cache hit
				// or full walk, depending on which side of the eviction
				// boundary `since` falls) must reconstruct the master.
				d, err := master.CollectDiff(since)
				if err != nil {
					t.Fatal(err)
				}
				if d == nil {
					t.Fatalf("since=%d < version %d but diff is nil", since, master.Version)
				}
				if got := applyToClone(t, images[since], d); !bytes.Equal(got, want) {
					t.Errorf("since=%d: CollectDiff result diverges from master", since)
				}
			}
			if cacheCap > 0 && merges == 0 {
				t.Errorf("cache cap %d but no merged collections exercised", cacheCap)
			}
			if cacheCap == 0 && merges > 0 {
				t.Errorf("cache disabled but %d merged collections happened", merges)
			}
		})
	}
}
