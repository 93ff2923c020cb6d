package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// buildSeekableRecord encodes a multi-epoch record with seekable cuts and
// returns the bytes plus the flush-point offsets (segment boundaries).
func buildSeekableRecord(t testing.TB, seed int64, events, epochs int) ([]byte, []int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var buf bytes.Buffer
	var cuts []int64
	enc, err := NewEncoder(&buf, EncoderOptions{
		ChunkEvents:  32,
		SeekableCuts: true,
		OnFlushPoint: func(clock, events uint64, offset int64) error {
			cuts = append(cuts, offset)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for cs := uint64(1); cs <= 3; cs++ {
		if err := enc.RegisterCallsite(cs, fmt.Sprintf("site%d.go:%d", cs, cs)); err != nil {
			t.Fatal(err)
		}
	}
	evs := synthEvents(rng, events, 4, 3)
	per := len(evs) / epochs
	var maxClock uint64
	for i, ev := range evs {
		if err := enc.Observe(uint64(1+rng.Intn(3)), ev); err != nil {
			t.Fatal(err)
		}
		if ev.Clock > maxClock {
			maxClock = ev.Clock
		}
		if per > 0 && (i+1)%per == 0 {
			if err := enc.FlushAll(maxClock); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), cuts
}

// frameFlat is a decoded frame reduced to comparable parts.
type frameFlat struct {
	kind    byte
	payload string
}

// drainFlat consumes an iterator to EOF, returning the flattened frame
// sequence, final counters, and callsite names.
func drainFlat(t testing.TB, it *RecordIter) (frames []frameFlat, counters [3]uint64, names map[uint64]string) {
	t.Helper()
	for {
		f, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		frames = append(frames, frameFlat{f.Kind, string(f.Payload)})
	}
	counters = [3]uint64{it.Frames(), it.Events(), it.FlushPoints()}
	names = it.Names()
	if err := it.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return frames, counters, names
}

// TestParallelDecodeIdentity checks every pool width delivers the exact
// serial frame sequence, in both stream mode (sequential reader) and
// segment mode (ReaderAt + cuts).
func TestParallelDecodeIdentity(t *testing.T) {
	data, cuts := buildSeekableRecord(t, 101, 2000, 8)
	serialIt, err := OpenRecord(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	want, wantCounters, wantNames := drainFlat(t, serialIt)
	if len(want) == 0 || wantCounters[2] == 0 {
		t.Fatalf("degenerate record: %d frames, %d flush points", len(want), wantCounters[2])
	}

	for _, workers := range []int{0, 1, 2, 4, 8} {
		o := DecoderOptions{DecodeWorkers: workers}
		t.Run(fmt.Sprintf("stream/workers=%d", workers), func(t *testing.T) {
			it, err := OpenRecordOptions(bytes.NewReader(data), o)
			if err != nil {
				t.Fatal(err)
			}
			got, gotCounters, gotNames := drainFlat(t, it)
			compareFlat(t, got, want)
			if gotCounters != wantCounters {
				t.Fatalf("counters %v, serial %v", gotCounters, wantCounters)
			}
			if len(gotNames) != len(wantNames) {
				t.Fatalf("names %v, serial %v", gotNames, wantNames)
			}
		})
		t.Run(fmt.Sprintf("segments/workers=%d", workers), func(t *testing.T) {
			ra := bytes.NewReader(data)
			it, err := OpenRecordSegments(ra, int64(len(data)), cuts, o)
			if err != nil {
				t.Fatal(err)
			}
			got, gotCounters, _ := drainFlat(t, it)
			compareFlat(t, got, want)
			if gotCounters != wantCounters {
				t.Fatalf("counters %v, serial %v", gotCounters, wantCounters)
			}
		})
	}
}

func compareFlat(t *testing.T, got, want []frameFlat) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d frames, serial delivered %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("frame %d: kind %d payload %d bytes, serial kind %d payload %d bytes",
				i, got[i].kind, len(got[i].payload), want[i].kind, len(want[i].payload))
		}
	}
}

// drainToError consumes an iterator until it fails, returning the error and
// how many frames were delivered first.
func drainToError(it *RecordIter) (int, error) {
	n := 0
	for {
		_, err := it.Next()
		if err != nil {
			it.Close() //cdc:allow(errsink) test teardown after the error under test
			return n, err
		}
		n++
	}
}

// TestParallelDecodeTruncationParity truncates the record mid-stream and
// checks every pool width surfaces the same first error as the serial
// reader: a TruncatedRecordError with identical delivered-prefix counters.
func TestParallelDecodeTruncationParity(t *testing.T) {
	data, _ := buildSeekableRecord(t, 102, 1200, 6)
	for _, cutAt := range []int{len(data) / 3, len(data) / 2, len(data) - 3} {
		mut := data[:cutAt]
		serialIt, err := OpenRecord(bytes.NewReader(mut))
		if err != nil {
			continue // truncated inside the header: nothing to compare
		}
		wantN, wantErr := drainToError(serialIt)
		for _, workers := range []int{1, 2, 4, 8} {
			it, err := OpenRecordOptions(bytes.NewReader(mut), DecoderOptions{DecodeWorkers: workers})
			if err != nil {
				t.Fatalf("cut %d workers %d: open: %v", cutAt, workers, err)
			}
			gotN, gotErr := drainToError(it)
			if gotN != wantN {
				t.Fatalf("cut %d workers %d: delivered %d frames before failing, serial %d", cutAt, workers, gotN, wantN)
			}
			if (gotErr == io.EOF) != (wantErr == io.EOF) {
				t.Fatalf("cut %d workers %d: got %v, serial %v", cutAt, workers, gotErr, wantErr)
			}
			var gotTr, wantTr *TruncatedRecordError
			if errors.As(gotErr, &gotTr) != errors.As(wantErr, &wantTr) {
				t.Fatalf("cut %d workers %d: got %v, serial %v", cutAt, workers, gotErr, wantErr)
			}
			if gotTr != nil && (gotTr.Frames != wantTr.Frames || gotTr.Events != wantTr.Events || gotTr.FlushPoints != wantTr.FlushPoints) {
				t.Fatalf("cut %d workers %d: truncation counters %+v, serial %+v", cutAt, workers, gotTr, wantTr)
			}
		}
	}
}

// TestParallelDecodeCorruptionFirstErrorWins flips a byte mid-record: the
// pooled decoder must fail on the same frame ordinal as the serial one
// (frames past the damage may have decoded fine on other workers, but the
// consumer sees errors in stream order).
func TestParallelDecodeCorruptionFirstErrorWins(t *testing.T) {
	data, _ := buildSeekableRecord(t, 103, 1200, 6)
	rng := rand.New(rand.NewSource(104))
	for trial := 0; trial < 40; trial++ {
		mut := append([]byte(nil), data...)
		i := len(Magic) + rng.Intn(len(mut)-len(Magic))
		mut[i] ^= byte(1 + rng.Intn(255))
		serialIt, err := OpenRecord(bytes.NewReader(mut))
		if err != nil {
			continue
		}
		wantN, wantErr := drainToError(serialIt)
		for _, workers := range []int{2, 8} {
			it, err := OpenRecordOptions(bytes.NewReader(mut), DecoderOptions{DecodeWorkers: workers})
			if err != nil {
				t.Fatalf("trial %d workers %d: open: %v", trial, workers, err)
			}
			gotN, gotErr := drainToError(it)
			if gotN != wantN || (gotErr == io.EOF) != (wantErr == io.EOF) {
				t.Fatalf("trial %d (flip at %d) workers %d: %d frames then %v; serial %d frames then %v",
					trial, i, workers, gotN, gotErr, wantN, wantErr)
			}
		}
	}
}

// TestParallelDecodeEarlyClose abandons iterators at every prefix length:
// Close must not deadlock against in-flight workers, and a closed iterator
// must refuse further reads.
func TestParallelDecodeEarlyClose(t *testing.T) {
	data, cuts := buildSeekableRecord(t, 105, 800, 6)
	for _, workers := range []int{1, 4, 8} {
		for stop := 0; stop < 20; stop++ {
			it, err := OpenRecordOptions(bytes.NewReader(data), DecoderOptions{DecodeWorkers: workers, Prefetch: 2})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < stop; i++ {
				if _, err := it.Next(); err != nil {
					break
				}
			}
			if err := it.Close(); err != nil {
				t.Fatalf("workers %d stop %d: Close: %v", workers, stop, err)
			}
			if _, err := it.Next(); err == nil || err == io.EOF {
				t.Fatalf("workers %d: Next after Close gave %v", workers, err)
			}
		}
		it, err := OpenRecordSegments(bytes.NewReader(data), int64(len(data)), cuts, DecoderOptions{DecodeWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := it.Next(); err != nil {
			t.Fatal(err)
		}
		if err := it.Close(); err != nil {
			t.Fatalf("segment early close: %v", err)
		}
	}
}

// TestParallelDecodeStress hammers the pipeline with many concurrent
// iterations; run under -race this exercises the job recycling, the gzip
// reader pool, and the ordered hand-off.
func TestParallelDecodeStress(t *testing.T) {
	data, cuts := buildSeekableRecord(t, 106, 1500, 10)
	iters := 30
	if testing.Short() {
		iters = 8
	}
	done := make(chan error, 2*iters)
	for i := 0; i < iters; i++ {
		go func(i int) {
			it, err := OpenRecordOptions(bytes.NewReader(data), DecoderOptions{DecodeWorkers: 1 + i%8})
			if err != nil {
				done <- err
				return
			}
			if _, err := DrainRecord(it); err != nil {
				done <- err
				return
			}
			done <- nil
		}(i)
		go func(i int) {
			it, err := OpenRecordSegments(bytes.NewReader(data), int64(len(data)), cuts, DecoderOptions{DecodeWorkers: 1 + i%8})
			if err != nil {
				done <- err
				return
			}
			if _, err := DrainRecord(it); err != nil {
				done <- err
				return
			}
			done <- nil
		}(i)
	}
	for i := 0; i < 2*iters; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestReadRecordOptionsMatchesReadRecord pins the convenience wrapper to
// a serial whole-record read (OpenRecord + DrainRecord).
func TestReadRecordOptionsMatchesReadRecord(t *testing.T) {
	data, _ := buildSeekableRecord(t, 107, 600, 4)
	want, err := drainAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadRecordOptions(bytes.NewReader(data), DecoderOptions{DecodeWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Names) != len(want.Names) || len(got.Chunks) != len(want.Chunks) {
		t.Fatalf("pooled read: %d names/%d callsites, serial %d/%d",
			len(got.Names), len(got.Chunks), len(want.Names), len(want.Chunks))
	}
	for cs, chunks := range want.Chunks {
		if len(got.Chunks[cs]) != len(chunks) {
			t.Fatalf("callsite %d: %d chunks, serial %d", cs, len(got.Chunks[cs]), len(chunks))
		}
	}
}

// chunkDecodeCorpus loads the cdcformat chunk-decoder fuzz corpus (raw
// marshalled-chunk payloads, many of them hostile) so the parallel decoder
// fuzzes over the same inputs that hardened the serial chunk parser.
func chunkDecodeCorpus(f *testing.F) [][]byte {
	f.Helper()
	dir := filepath.Join("..", "cdcformat", "testdata", "fuzz", "FuzzChunkDecode")
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Logf("no shared corpus at %s: %v", dir, err)
		return nil
	}
	var payloads [][]byte
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(raw), "\n") {
			line = strings.TrimSpace(line)
			if !strings.HasPrefix(line, "[]byte(") || !strings.HasSuffix(line, ")") {
				continue
			}
			if s, err := strconv.Unquote(line[len("[]byte(") : len(line)-1]); err == nil {
				payloads = append(payloads, []byte(s))
			}
		}
	}
	return payloads
}

// frameAsRecord wraps an arbitrary payload in one well-formed chunk frame
// (correct varint length and CRC trailer) so the payload itself, not the
// framing, is what the chunk decoder chews on.
func frameAsRecord(f *testing.F, payload []byte) []byte {
	f.Helper()
	var buf bytes.Buffer
	fw, err := NewFrameWriter(&buf, 0, false)
	if err != nil {
		f.Fatal(err)
	}
	if err := fw.WriteFrame(frameChunk, payload); err != nil {
		f.Fatal(err)
	}
	if err := fw.Close(1); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzParallelDecode is the differential oracle for the decode pipeline:
// whatever the input, the pooled decoder must deliver exactly the serial
// reader's frame sequence and fail (or finish) exactly where it does. Seeds
// include valid multi-epoch records, truncations, bit flips, and the
// cdcformat chunk-decoder corpus framed into records.
func FuzzParallelDecode(f *testing.F) {
	valid, _ := buildSeekableRecord(f, 109, 300, 3)
	f.Add(valid, uint8(2))
	f.Add(valid[:len(valid)/2], uint8(4))
	f.Add(valid[:len(Magic)+5], uint8(1))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x20
	f.Add(flipped, uint8(8))
	f.Add([]byte(Magic), uint8(3))
	for i, payload := range chunkDecodeCorpus(f) {
		f.Add(frameAsRecord(f, payload), uint8(1+i%8))
	}

	f.Fuzz(func(t *testing.T, data []byte, workers uint8) {
		w := 1 + int(workers%8)
		serialIt, serialErr := OpenRecord(bytes.NewReader(data))
		pooledIt, pooledErr := OpenRecordOptions(bytes.NewReader(data), DecoderOptions{DecodeWorkers: w})
		if (serialErr == nil) != (pooledErr == nil) {
			t.Fatalf("open: serial %v, %d workers %v", serialErr, w, pooledErr)
		}
		if serialErr != nil {
			return
		}
		defer serialIt.Close()
		var n int
		for {
			sf, serr := serialIt.Next()
			pf, perr := pooledIt.Next()
			if (serr == nil) != (perr == nil) {
				t.Fatalf("frame %d: serial err %v, %d workers err %v", n, serr, w, perr)
			}
			if serr != nil {
				if (serr == io.EOF) != (perr == io.EOF) {
					t.Fatalf("terminal: serial %v, %d workers %v", serr, w, perr)
				}
				var st, pt *TruncatedRecordError
				if errors.As(serr, &st) != errors.As(perr, &pt) {
					t.Fatalf("terminal kind: serial %v, %d workers %v", serr, w, perr)
				}
				if st != nil && (st.Frames != pt.Frames || st.Events != pt.Events || st.FlushPoints != pt.FlushPoints) {
					t.Fatalf("truncation counters: serial %+v, %d workers %+v", st, w, pt)
				}
				break
			}
			if sf.Kind != pf.Kind || !bytes.Equal(sf.Payload, pf.Payload) {
				t.Fatalf("frame %d diverges: serial kind %d/%dB, %d workers kind %d/%dB",
					n, sf.Kind, len(sf.Payload), w, pf.Kind, len(pf.Payload))
			}
			n++
		}
		if err := pooledIt.Close(); err != nil {
			t.Fatalf("pooled Close: %v", err)
		}
	})
}

// TestOpenRecordSegmentsBadCuts feeds hostile cut lists: out-of-range,
// unsorted, and duplicate offsets must be survivable (sanitized or failed),
// never a panic or a wrong stream.
func TestOpenRecordSegmentsBadCuts(t *testing.T) {
	data, _ := buildSeekableRecord(t, 108, 400, 4)
	serial, err := drainAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for _, cuts := range [][]int64{
		nil,
		{},
		{-5, 0, 3},
		{int64(len(data)), int64(len(data) + 100)},
		{7, 7, 7},
		{int64(len(data) / 2), int64(len(data) / 4)},
	} {
		it, err := OpenRecordSegments(bytes.NewReader(data), int64(len(data)), cuts, DecoderOptions{DecodeWorkers: 2})
		if err != nil {
			continue
		}
		rec, err := DrainRecord(it)
		if err != nil {
			// Bogus interior cuts can legitimately fail decode; what they
			// cannot do is silently deliver a different record.
			continue
		}
		if len(rec.Names) != len(serial.Names) {
			t.Fatalf("cuts %v: decoded %d names, serial %d", cuts, len(rec.Names), len(serial.Names))
		}
	}
}

// TestOpenRecordSegmentsAtSeek pins the seek contract: starting a segment
// decode at the k-th committed cut must deliver exactly the frames a serial
// full decode yields after its k-th flush mark, at every pool width.
func TestOpenRecordSegmentsAtSeek(t *testing.T) {
	data, cuts := buildSeekableRecord(t, 117, 1200, 6)
	serialIt, err := OpenRecord(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	all, _, _ := drainFlat(t, serialIt)

	// tailAfterFlush returns the serial frame sequence past k flush marks.
	tailAfterFlush := func(k int) []frameFlat {
		seen := 0
		for i, f := range all {
			if f.kind == frameFlush {
				seen++
				if seen == k {
					return all[i+1:]
				}
			}
		}
		t.Fatalf("record has fewer than %d flush marks", k)
		return nil
	}

	for k := 1; k <= len(cuts); k++ {
		want := tailAfterFlush(k)
		for _, workers := range []int{0, 1, 2, 4} {
			it, err := OpenRecordSegmentsAt(bytes.NewReader(data), int64(len(data)), cuts[k-1], cuts,
				DecoderOptions{DecodeWorkers: workers})
			if err != nil {
				t.Fatalf("seek to cut %d workers=%d: %v", k, workers, err)
			}
			got, _, _ := drainFlat(t, it)
			if len(got) != len(want) {
				t.Fatalf("cut %d workers=%d: got %d frames, want %d", k, workers, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("cut %d workers=%d: frame %d differs", k, workers, i)
				}
			}
		}
	}

	// start == 0 is exactly OpenRecordSegments.
	it, err := OpenRecordSegmentsAt(bytes.NewReader(data), int64(len(data)), 0, cuts, DecoderOptions{DecodeWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, _, _ := drainFlat(t, it)
	if len(got) != len(all) {
		t.Fatalf("start=0: got %d frames, want %d", len(got), len(all))
	}

	// A seek landing exactly at the end of the blob is a valid empty tail.
	it, err = OpenRecordSegmentsAt(bytes.NewReader(data), int64(len(data)), int64(len(data)), cuts, DecoderOptions{DecodeWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got, _, _ := drainFlat(t, it); len(got) != 0 {
		t.Fatalf("seek to end: got %d frames, want 0", len(got))
	}

	// Out-of-range starts fail up front rather than decoding garbage.
	for _, start := range []int64{-1, int64(len(data)) + 9} {
		if _, err := OpenRecordSegmentsAt(bytes.NewReader(data), int64(len(data)), start, cuts, DecoderOptions{DecodeWorkers: 2}); err == nil {
			t.Fatalf("start=%d: want error, got nil", start)
		}
	}
}
