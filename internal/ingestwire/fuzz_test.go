package ingestwire

import (
	"runtime"
	"testing"

	"cdcreplay/internal/tables"
	"cdcreplay/internal/varint"
)

// maxDecodeAlloc bounds the heap bytes DecodeRows may allocate for an
// n-byte payload: every row takes at least one byte and decodes into one
// Row plus its name, so the bound is a Row's size per byte plus slack for
// error values and the allocation counter's own noise.
func maxDecodeAlloc(n int) uint64 { return 128*uint64(n) + 64<<10 }

// allocated reports the heap bytes allocated while f runs.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzDecodeRows checks that DecodeRows, which parses payloads straight off
// the network, either rejects its input or returns rows that survive an
// encode/decode round trip, and that either way it allocates at most
// maxDecodeAlloc(len(payload)).
func FuzzDecodeRows(f *testing.F) {
	rows := []Row{
		{Callsite: 1, Name: "recv@solver.c:42", Clock: 10, Ev: tables.MatchedTagged(3, 77, 9, false)},
		{Callsite: 1, Clock: 11, Ev: tables.Matched(2, 10, true)},
		{Callsite: 2, Name: "wait@halo.c:7", Clock: 11, Ev: tables.Unmatched(5)},
	}
	valid := encodeRows(rows)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add(varint.AppendUint(nil, MaxFrame))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x7f})

	f.Fuzz(func(t *testing.T, payload []byte) {
		var got []Row
		var err error
		if n := allocated(func() { got, err = DecodeRows(payload) }); n > maxDecodeAlloc(len(payload)) {
			t.Fatalf("decoding %d bytes allocated %d bytes, over the %d bound", len(payload), n, maxDecodeAlloc(len(payload)))
		}
		if err != nil {
			return
		}
		again, err := DecodeRows(encodeRows(got))
		if err != nil {
			t.Fatalf("re-decoding accepted rows failed: %v", err)
		}
		if len(again) != len(got) {
			t.Fatalf("round trip gave %d rows, want %d", len(again), len(got))
		}
		for i := range got {
			if again[i] != got[i] {
				t.Fatalf("row %d: round trip gave %+v, want %+v", i, again[i], got[i])
			}
		}
	})
}

// encodeRows builds an Events payload the way Conn.WriteEvents does.
func encodeRows(rows []Row) []byte {
	buf := varint.AppendUint(nil, uint64(len(rows)))
	for _, r := range rows {
		buf = AppendRow(buf, r)
	}
	return buf
}
