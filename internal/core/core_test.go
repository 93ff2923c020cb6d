package core

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"cdcreplay/internal/tables"
)

// synthEvents builds an event stream with per-sender increasing clocks and
// a controllable disorder level.
func synthEvents(rng *rand.Rand, n, senders, window int) []tables.Event {
	// Generate in reference order, then displace within a window to
	// emulate network reordering.
	type msg struct {
		rank  int32
		clock uint64
	}
	clocks := make([]uint64, senders)
	msgs := make([]msg, n)
	for i := range msgs {
		r := rng.Intn(senders)
		clocks[r] += uint64(1 + rng.Intn(3))
		msgs[i] = msg{rank: int32(r), clock: clocks[r]}
	}
	if window > 0 {
		for i := 0; i+1 < len(msgs); i++ {
			j := i + rng.Intn(window)
			if j >= len(msgs) {
				j = len(msgs) - 1
			}
			// Swap only across different senders to preserve per-sender
			// FIFO clock order.
			if msgs[i].rank != msgs[j].rank {
				msgs[i], msgs[j] = msgs[j], msgs[i]
			}
		}
	}
	events := make([]tables.Event, 0, n)
	for _, m := range msgs {
		if rng.Intn(8) == 0 {
			events = append(events, tables.Unmatched(uint64(1+rng.Intn(3))))
		}
		events = append(events, tables.Matched(m.rank, m.clock, rng.Intn(10) == 0))
	}
	return events
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf, EncoderOptions{ChunkEvents: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.RegisterCallsite(1, "mcb.go:42"); err != nil {
		t.Fatal(err)
	}
	if err := enc.RegisterCallsite(2, "mcb.go:99"); err != nil {
		t.Fatal(err)
	}

	streams := map[uint64][]tables.Event{
		1: synthEvents(rng, 500, 5, 4),
		2: synthEvents(rng, 300, 3, 2),
	}
	// Interleave the two callsites' rows.
	i1, i2 := 0, 0
	for i1 < len(streams[1]) || i2 < len(streams[2]) {
		if i1 < len(streams[1]) && (i2 >= len(streams[2]) || rng.Intn(2) == 0) {
			if err := enc.Observe(1, streams[1][i1]); err != nil {
				t.Fatal(err)
			}
			i1++
		} else if i2 < len(streams[2]) {
			if err := enc.Observe(2, streams[2][i2]); err != nil {
				t.Fatal(err)
			}
			i2++
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	if enc.BytesWritten() != int64(buf.Len()) {
		t.Fatalf("BytesWritten %d != buffer %d", enc.BytesWritten(), buf.Len())
	}

	rec, err := drainAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Names[1] != "mcb.go:42" || rec.Names[2] != "mcb.go:99" {
		t.Fatalf("names = %v", rec.Names)
	}
	for cs, want := range streams {
		var got []tables.Event
		for _, chunk := range rec.Chunks[cs] {
			var msgs []tables.MatchedEntry
			// In tests we reconstruct from the original message multiset
			// (shuffled) — at replay these come from live messages.
			msgs = matchedOf(want, len(got), int(chunk.NumMatched))
			rng.Shuffle(len(msgs), func(i, j int) { msgs[i], msgs[j] = msgs[j], msgs[i] })
			evs, err := chunk.ReconstructEvents(msgs)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, evs...)
		}
		if !reflect.DeepEqual(normalize(got), normalize(want)) {
			t.Fatalf("callsite %d: reconstructed stream differs", cs)
		}
	}
}

// matchedOf extracts the matched entries for a chunk, given how many events
// of the stream were already consumed by earlier chunks.
func matchedOf(events []tables.Event, alreadyReconstructed, n int) []tables.MatchedEntry {
	var all []tables.MatchedEntry
	// Count matched events consumed so far by scanning the reconstructed
	// prefix length in rows: easier to just collect all matched entries and
	// slice by chunk boundaries tracked in matched counts.
	consumedMatched := 0
	rows := 0
	for _, ev := range events {
		if rows >= alreadyReconstructed {
			break
		}
		rows++
		if ev.Flag {
			consumedMatched++
		}
	}
	for _, ev := range events {
		if ev.Flag {
			all = append(all, tables.MatchedEntry{Rank: ev.Rank, Clock: ev.Clock})
		}
	}
	return append([]tables.MatchedEntry(nil), all[consumedMatched:consumedMatched+n]...)
}

// normalize merges adjacent unmatched rows so chunk-boundary splits of a
// run (recorded as two rows) compare equal to the original single row.
func normalize(events []tables.Event) []tables.Event {
	var out []tables.Event
	for _, ev := range events {
		if !ev.Flag && len(out) > 0 && !out[len(out)-1].Flag {
			out[len(out)-1].Count += ev.Count
			continue
		}
		out = append(out, ev)
	}
	return out
}

func TestStatsAccounting(t *testing.T) {
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf, EncoderOptions{ChunkEvents: 8})
	if err != nil {
		t.Fatal(err)
	}
	events := []tables.Event{
		tables.Matched(0, 1, false),
		tables.Unmatched(3),
		tables.Matched(1, 2, false),
	}
	for _, ev := range events {
		if err := enc.Observe(0, ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	s := enc.Stats()
	if s.Rows != 3 || s.MatchedEvents != 2 || s.UnmatchedTests != 3 {
		t.Fatalf("stats = %+v", s)
	}
	if s.ValuesOriginal != 15 {
		t.Fatalf("ValuesOriginal = %d", s.ValuesOriginal)
	}
	if s.Chunks != 1 {
		t.Fatalf("Chunks = %d", s.Chunks)
	}
	if s.PermutedMessages != 0 {
		t.Fatalf("in-order stream shows %d permuted", s.PermutedMessages)
	}
	if s.PermutationPercent() != 0 {
		t.Fatalf("PermutationPercent = %v", s.PermutationPercent())
	}
}

func TestPermutationPercentWorkedExample(t *testing.T) {
	var buf bytes.Buffer
	enc, _ := NewEncoder(&buf, EncoderOptions{})
	// Paper Fig. 7: 8 receives, 3 permuted → 37.5%.
	clocks := []struct {
		rank  int32
		clock uint64
	}{{0, 2}, {0, 13}, {2, 8}, {1, 8}, {0, 15}, {1, 19}, {0, 17}, {0, 18}}
	for _, m := range clocks {
		if err := enc.Observe(0, tables.Matched(m.rank, m.clock, false)); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	if got := enc.Stats().PermutationPercent(); got != 37.5 {
		t.Fatalf("permutation%% = %v, want 37.5 (paper §6.1)", got)
	}
}

func TestObserveAfterCloseFails(t *testing.T) {
	enc, _ := NewEncoder(&bytes.Buffer{}, EncoderOptions{})
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := enc.Observe(0, tables.Matched(0, 1, false)); err == nil {
		t.Fatal("Observe after Close succeeded")
	}
}

func TestDoubleCloseIsIdempotent(t *testing.T) {
	enc, _ := NewEncoder(&bytes.Buffer{}, EncoderOptions{})
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReadRecordRejectsGarbage checks a whole-record read (OpenRecord +
// DrainRecord) refuses input that is not a record.
func TestReadRecordRejectsGarbage(t *testing.T) {
	if _, err := drainAll(bytes.NewReader([]byte("not a record"))); err == nil {
		t.Fatal("accepted garbage")
	}
	if _, err := drainAll(bytes.NewReader([]byte("CDCRECv1 garbage follows"))); err == nil {
		t.Fatal("accepted corrupt gzip stream")
	}
	if _, err := drainAll(bytes.NewReader(nil)); err == nil {
		t.Fatal("accepted empty input")
	}
}

// The headline claim: for near-ordered event streams CDC output is much
// smaller than raw, and smaller than what gzip alone achieves.
func TestCompressionOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	events := synthEvents(rng, 20000, 8, 3)

	var cdcBuf bytes.Buffer
	enc, _ := NewEncoder(&cdcBuf, EncoderOptions{})
	for _, ev := range events {
		if err := enc.Observe(0, ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}

	rawBits := int64(len(events)) * 162
	rawBytes := rawBits / 8
	cdcBytes := enc.BytesWritten()
	if cdcBytes*10 > rawBytes {
		t.Fatalf("CDC %d bytes vs raw %d bytes: less than 10x gain on near-ordered stream", cdcBytes, rawBytes)
	}
	t.Logf("raw=%dB cdc=%dB ratio=%.1fx bytes/event=%.3f",
		rawBytes, cdcBytes, float64(rawBytes)/float64(cdcBytes),
		float64(cdcBytes)/float64(enc.Stats().MatchedEvents))
}

// drainAll decodes a whole record through the one reader, OpenRecord then
// DrainRecord, and fails on any damage.
func drainAll(rd io.Reader) (*Record, error) {
	it, err := OpenRecord(rd)
	if err != nil {
		return nil, err
	}
	rec, err := DrainRecord(it)
	if err != nil {
		return nil, err
	}
	return rec, nil
}
