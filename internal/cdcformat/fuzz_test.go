package cdcformat

import (
	"bytes"
	"runtime"
	"testing"

	"cdcreplay/internal/tables"
	"cdcreplay/internal/varint"
)

// fuzzSeedChunk builds a representative chunk (moves, with-next groups,
// unmatched runs, multi-rank epoch line, sender column) for the seed corpus.
func fuzzSeedChunk() []byte {
	events := []tables.Event{
		tables.MatchedTagged(0, 3, 4, false),
		tables.MatchedTagged(1, 3, 2, false),
		tables.Unmatched(2),
		tables.MatchedTagged(0, 9, 5, true),
		tables.MatchedTagged(1, 3, 5, false),
		tables.MatchedTagged(2, 3, 2, false),
		tables.MatchedTagged(0, 3, 6, false),
	}
	return BuildChunkWithSenders(7, events).Marshal(nil)
}

// maxDecodeAlloc bounds the heap bytes a decode of n input bytes may
// allocate: a constant factor per byte (every table element takes at least
// one byte and decodes into at most a few words) plus slack for the chunk
// header, error values and the allocation counter's own noise.
func maxDecodeAlloc(n int) uint64 { return 64*uint64(n) + 64<<10 }

// allocated reports the heap bytes allocated while f runs.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzChunkDecode checks decoder totality, bounded allocation and re-encode
// canonicality: on any input, Unmarshal either errors or returns a chunk,
// allocating at most maxDecodeAlloc(len(input)); on success, the chunk
// must survive Marshal → Unmarshal → Marshal as a byte-for-byte fixed point
// (the committed corpus under testdata/fuzz is seeded from chunks that
// cdcdst-explored schedules actually produced — see DESIGN.md §11).
func FuzzChunkDecode(f *testing.F) {
	valid := fuzzSeedChunk()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte{0x07, 0x00})
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x20
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		var c *Chunk
		var err error
		if n := allocated(func() { c, err = Unmarshal(varint.NewReader(data)) }); n > maxDecodeAlloc(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d bytes, over the %d bound", len(data), n, maxDecodeAlloc(len(data)))
		}
		if err != nil {
			return // rejected inputs just must not panic
		}
		enc1 := c.Marshal(nil)
		c2, err := Unmarshal(varint.NewReader(enc1))
		if err != nil {
			t.Fatalf("re-decoding an accepted chunk's encoding failed: %v", err)
		}
		enc2 := c2.Marshal(nil)
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("re-encode is not a fixed point:\nfirst:  %x\nsecond: %x", enc1, enc2)
		}
	})
}
