package cdcformat

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"cdcreplay/internal/permdiff"
	"cdcreplay/internal/tables"
	"cdcreplay/internal/varint"
)

// paperFig4 is the literal 11-row record table of paper Fig. 4.
func paperFig4() []tables.Event {
	return []tables.Event{
		tables.Matched(0, 2, false),
		tables.Unmatched(2),
		tables.Matched(0, 13, true),
		tables.Matched(2, 8, false),
		tables.Matched(1, 8, false),
		tables.Matched(0, 15, false),
		tables.Matched(1, 19, false),
		tables.Unmatched(3),
		tables.Matched(0, 17, false),
		tables.Unmatched(1),
		tables.Matched(0, 18, false),
	}
}

// TestPaperWorkedExample follows the paper end to end: the 11-event table
// of Fig. 4 carries 55 values; after the full CDC encoding (Fig. 8) only 19
// values remain, including the epoch line.
func TestPaperWorkedExample(t *testing.T) {
	events := paperFig4()
	if got := tables.ValueCount(events); got != 55 {
		t.Fatalf("original values = %d, want 55", got)
	}
	c := BuildChunk(7, events)
	if c.NumMatched != 8 {
		t.Errorf("matched = %d, want 8", c.NumMatched)
	}
	if len(c.Moves) != 3 {
		t.Errorf("permutation moves = %d, want 3 (Fig. 7)", len(c.Moves))
	}
	if got := c.ValueCount(); got != 19 {
		t.Errorf("CDC values = %d, want 19 (Fig. 8)", got)
	}
	wantEpoch := []EpochEntry{{0, 18}, {1, 19}, {2, 8}}
	if !reflect.DeepEqual(c.EpochLine, wantEpoch) {
		t.Errorf("epoch line = %v, want %v (Fig. 8)", c.EpochLine, wantEpoch)
	}

	// Reconstruction from the message multiset in arbitrary order.
	msgs := shuffledMatched(events, 5)
	got, err := c.ReconstructEvents(msgs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("reconstructed events differ:\n got %v\nwant %v", got, events)
	}
}

func shuffledMatched(events []tables.Event, seed int64) []tables.MatchedEntry {
	var msgs []tables.MatchedEntry
	for _, ev := range events {
		if ev.Flag {
			msgs = append(msgs, tables.MatchedEntry{Rank: ev.Rank, Clock: ev.Clock})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(msgs), func(i, j int) { msgs[i], msgs[j] = msgs[j], msgs[i] })
	return msgs
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	c := BuildChunk(42, paperFig4())
	buf := c.Marshal(nil)
	got, err := Unmarshal(varint.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, c) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, c)
	}
}

func TestMarshalEmptyChunk(t *testing.T) {
	c := BuildChunk(0, nil)
	buf := c.Marshal(nil)
	got, err := Unmarshal(varint.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumMatched != 0 || len(got.Moves) != 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestInReferenceOrderChunkHasNoMoves(t *testing.T) {
	// Monotonically increasing clocks: the matched-test table compresses
	// to nothing (§3.3: "CDC records nothing for the matched-test table").
	events := []tables.Event{
		tables.Matched(0, 1, false),
		tables.Matched(1, 2, false),
		tables.Matched(0, 3, false),
		tables.Matched(2, 5, false),
	}
	c := BuildChunk(0, events)
	if len(c.Moves) != 0 {
		t.Fatalf("in-order receives produced %d moves: %v", len(c.Moves), c.Moves)
	}
}

func TestClockTieBrokenByRank(t *testing.T) {
	// Two messages with equal clocks: Definition 6 places the smaller
	// sender rank first in the reference order, so receiving the bigger
	// rank first counts as a permutation.
	inOrder := []tables.Event{
		tables.Matched(1, 8, false),
		tables.Matched(2, 8, false),
	}
	if c := BuildChunk(0, inOrder); len(c.Moves) != 0 {
		t.Fatalf("rank-ordered ties produced moves: %v", c.Moves)
	}
	outOfOrder := []tables.Event{
		tables.Matched(2, 8, false),
		tables.Matched(1, 8, false),
	}
	c := BuildChunk(0, outOfOrder)
	if len(c.Moves) != 1 {
		t.Fatalf("reversed ties produced %d moves", len(c.Moves))
	}
	got, err := c.ReconstructEvents([]tables.MatchedEntry{{Rank: 1, Clock: 8}, {Rank: 2, Clock: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, outOfOrder) {
		t.Fatalf("reconstructed %v, want %v", got, outOfOrder)
	}
}

func TestReconstructRejectsWrongMessageCount(t *testing.T) {
	c := BuildChunk(0, paperFig4())
	if _, err := c.ReconstructEvents(nil); err == nil {
		t.Fatal("accepted empty message set")
	}
}

func TestUnmarshalRejectsCorruptCounts(t *testing.T) {
	// A chunk claiming a gigantic matched count must not allocate.
	var w varint.Writer
	w.Uint(0)       // callsite
	w.Uint(1 << 40) // absurd matched count
	if _, err := Unmarshal(varint.NewReader(w.Result())); err == nil {
		t.Fatal("accepted absurd matched count")
	}

	// A chunk whose move table exceeds its matched count must fail.
	w = varint.Writer{}
	w.Uint(0) // callsite
	w.Uint(2) // matched
	w.Uint(5) // 5 moves > 2 matched
	if _, err := Unmarshal(varint.NewReader(w.Result())); err == nil {
		t.Fatal("accepted move table longer than matched count")
	}
}

func TestUnmarshalBoundsAllocationByInput(t *testing.T) {
	// Nine bytes claiming 1<<24 matched events and as many moves: both
	// counts pass the matched-count limit, but the input holds no moves.
	var w varint.Writer
	w.Uint(1)       // callsite
	w.Uint(1 << 24) // matched
	w.Uint(1 << 24) // moves
	in := w.Result()
	if len(in) != 9 {
		t.Fatalf("test chunk is %d bytes, want 9", len(in))
	}
	const runs = 16
	var err error
	per := allocated(func() {
		for i := 0; i < runs; i++ {
			_, err = Unmarshal(varint.NewReader(in))
		}
	}) / runs
	if err == nil {
		t.Fatal("accepted a move table longer than the input")
	}
	if per >= 64<<10 {
		t.Fatalf("decoding %d bytes allocates %d bytes, want < 64 KiB", len(in), per)
	}
}

func TestUnmarshalTruncated(t *testing.T) {
	c := BuildChunk(3, paperFig4())
	buf := c.Marshal(nil)
	for cut := 0; cut < len(buf); cut++ {
		if _, err := Unmarshal(varint.NewReader(buf[:cut])); err == nil {
			t.Fatalf("accepted truncation at %d/%d bytes", cut, len(buf))
		}
	}
}

func TestRandomRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		events := randomEvents(rng, 1+rng.Intn(60))
		c := BuildChunk(uint64(trial), events)

		// Wire round trip.
		buf := c.Marshal(nil)
		c2, err := Unmarshal(varint.NewReader(buf))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !reflect.DeepEqual(c2, c) {
			t.Fatalf("trial %d: wire mismatch\n got %+v\nwant %+v", trial, c2, c)
		}

		// Semantic round trip from a shuffled message multiset.
		got, err := c2.ReconstructEvents(shuffledMatched(events, int64(trial)))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !reflect.DeepEqual(got, events) {
			t.Fatalf("trial %d: reconstruct mismatch\n got %v\nwant %v", trial, got, events)
		}
	}
}

// randomEvents builds an event stream with per-sender strictly increasing
// clocks (the invariant the lamport layer provides) plus unmatched runs.
func randomEvents(rng *rand.Rand, n int) []tables.Event {
	clock := map[int32]uint64{}
	var events []tables.Event
	lastUnmatched := false
	for i := 0; i < n; i++ {
		if !lastUnmatched && rng.Intn(4) == 0 {
			events = append(events, tables.Unmatched(uint64(1+rng.Intn(6))))
			lastUnmatched = true
			continue
		}
		lastUnmatched = false
		r := int32(rng.Intn(6))
		clock[r] += uint64(1 + rng.Intn(9))
		events = append(events, tables.Matched(r, clock[r], rng.Intn(5) == 0))
	}
	return events
}

func BenchmarkBuildChunk(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	events := randomEvents(rng, 4096)
	b.SetBytes(int64(len(events)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildChunk(0, events)
	}
}

func BenchmarkMarshal(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	c := BuildChunk(0, randomEvents(rng, 4096))
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = c.Marshal(buf[:0])
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	buf := BuildChunk(0, randomEvents(rng, 4096)).Marshal(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(varint.NewReader(buf)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestQuickMarshalRoundTrip drives Marshal/Unmarshal with randomly built —
// but structurally valid — chunks, independent of BuildChunk.
func TestQuickMarshalRoundTrip(t *testing.T) {
	gen := func(seed int64) *Chunk {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40)
		c := &Chunk{Callsite: rng.Uint64(), NumMatched: uint64(n)}
		// Moves: sorted observed indices with small delays, valid ranges.
		used := map[int64]bool{}
		for i := 0; i < n/3; i++ {
			obs := int64(rng.Intn(n))
			if used[obs] {
				continue
			}
			used[obs] = true
			d := int64(rng.Intn(5)) - 2
			if obs-d < 0 || obs-d >= int64(n) {
				d = 0
			}
			c.Moves = append(c.Moves, permdiff.Move{ObservedIndex: obs, Delay: d})
		}
		sort.Slice(c.Moves, func(i, j int) bool { return c.Moves[i].ObservedIndex < c.Moves[j].ObservedIndex })
		for i := 0; i < n/4; i++ {
			c.WithNext = append(c.WithNext, int64(i*2))
		}
		for i := 0; i < n/5; i++ {
			c.Unmatched = append(c.Unmatched, tables.UnmatchedRun{Index: int64(i * 3), Count: uint64(1 + rng.Intn(9))})
		}
		clk := uint64(0)
		for r := 0; r < n/6; r++ {
			clk += uint64(1 + rng.Intn(50))
			c.EpochLine = append(c.EpochLine, EpochEntry{Rank: int32(r), Clock: clk})
		}
		tclk := uint64(0)
		for i := 0; i < n/8; i++ {
			tclk += uint64(1 + rng.Intn(30))
			c.TiedClocks = append(c.TiedClocks, TiedClock{Clock: tclk, Count: uint64(2 + rng.Intn(3))})
		}
		if n > 0 && rng.Intn(2) == 0 {
			c.Senders = make([]int32, n)
			c.Tags = make([]int32, n)
			for i := range c.Senders {
				c.Senders[i] = int32(rng.Intn(8))
				c.Tags[i] = int32(rng.Intn(4))
			}
		}
		for i := 0; i < n/10; i++ {
			c.Exceptions = append(c.Exceptions, tables.MatchedEntry{Rank: int32(rng.Intn(8)), Clock: rng.Uint64() % 1000})
		}
		return c
	}
	for seed := int64(0); seed < 300; seed++ {
		c := gen(seed)
		got, err := Unmarshal(varint.NewReader(c.Marshal(nil)))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(got, c) {
			t.Fatalf("seed %d: round trip mismatch\n got %+v\nwant %+v", seed, got, c)
		}
	}
}

// TestStageSizesLPMatchesMarshal pins the stage accounting to reality: the
// lp stage is defined as "exactly the bytes Marshal produces", so any drift
// between StageSizes and the wire format is a bug in one of them.
func TestStageSizesLPMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		events := randomEvents(rng, 1+rng.Intn(60))
		c := BuildChunk(uint64(trial), events)
		re, pe, lp := StageSizes(events, c)
		if got := len(c.Marshal(nil)); lp != got {
			t.Fatalf("trial %d: StageSizes lp = %d, Marshal produced %d bytes", trial, lp, got)
		}
		if re <= 0 || pe <= 0 || lp <= 0 {
			t.Fatalf("trial %d: non-positive stage size re=%d pe=%d lp=%d", trial, re, pe, lp)
		}
	}
}
