package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"cdcreplay/internal/obs"
	"cdcreplay/internal/tables"
)

// driveEncoder feeds a deterministic multi-callsite workload through an
// encoder: interleaved streams, periodic FlushAll calls (some landing
// mid-group to exercise the skipped-stream path), and callsite
// registration mid-stream. The exact same drive against serial and
// parallel encoders must produce the exact same bytes.
func driveEncoder(t *testing.T, enc *Encoder, seed int64, events, flushEvery int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	streams := map[uint64][]tables.Event{
		1: synthEvents(rng, events, 6, 4),
		2: synthEvents(rng, events/2, 3, 2),
		3: synthEvents(rng, events/4, 8, 8),
	}
	if err := enc.RegisterCallsite(1, "a.go:1"); err != nil {
		t.Fatal(err)
	}
	if err := enc.RegisterCallsite(2, "b.go:2"); err != nil {
		t.Fatal(err)
	}
	idx := map[uint64]int{}
	order := []uint64{1, 2, 3, 1, 1, 2, 3, 3, 1, 2}
	var clock uint64
	for n := 0; ; n++ {
		cs := order[n%len(order)]
		evs := streams[cs]
		if idx[1] >= len(streams[1]) && idx[2] >= len(streams[2]) && idx[3] >= len(streams[3]) {
			break
		}
		if idx[cs] >= len(evs) {
			continue
		}
		ev := evs[idx[cs]]
		idx[cs]++
		if ev.Flag && ev.Clock > clock {
			clock = ev.Clock
		}
		if cs == 3 && idx[cs] == 1 {
			// Late registration, after chunks of other callsites may have
			// committed: ordering must still hold.
			if err := enc.RegisterCallsite(3, "c.go:3"); err != nil {
				t.Fatal(err)
			}
		}
		if err := enc.Observe(cs, ev); err != nil {
			t.Fatal(err)
		}
		if flushEvery > 0 && n%flushEvery == flushEvery-1 {
			if err := enc.FlushAll(clock); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestParallelEncodeByteIdentical is the golden test for the ordered-commit
// invariant: for every worker count, every chunk size, and both sender
// modes, the parallel pipeline must produce a record byte-for-byte
// identical to the serial encoder's.
func TestParallelEncodeByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		chunkEvents int
		flushEvery  int
		omitSenders bool
	}{
		{chunkEvents: 64, flushEvery: 0},
		{chunkEvents: 64, flushEvery: 97},
		{chunkEvents: 16, flushEvery: 33, omitSenders: true},
		{chunkEvents: 4096, flushEvery: 250},
	} {
		opts := EncoderOptions{ChunkEvents: tc.chunkEvents, OmitSenderColumn: tc.omitSenders}
		var serial bytes.Buffer
		enc, err := NewEncoder(&serial, opts)
		if err != nil {
			t.Fatal(err)
		}
		driveEncoder(t, enc, 42, 3000, tc.flushEvery)
		serialStats := enc.Stats()

		for _, workers := range []int{2, 4, 8} {
			popts := opts
			popts.EncodeWorkers = workers
			var parallel bytes.Buffer
			penc, err := NewEncoder(&parallel, popts)
			if err != nil {
				t.Fatal(err)
			}
			driveEncoder(t, penc, 42, 3000, tc.flushEvery)
			if !bytes.Equal(parallel.Bytes(), serial.Bytes()) {
				t.Fatalf("chunk=%d flush=%d omit=%v workers=%d: output differs from serial (%d vs %d bytes)",
					tc.chunkEvents, tc.flushEvery, tc.omitSenders, workers, parallel.Len(), serial.Len())
			}
			if got := penc.Stats(); !reflect.DeepEqual(got, serialStats) {
				t.Fatalf("chunk=%d flush=%d workers=%d: stats diverge\nparallel: %+v\nserial:   %+v",
					tc.chunkEvents, tc.flushEvery, workers, got, serialStats)
			}
		}
	}
}

// TestParallelEncodeObs checks that the pipeline path feeds the same
// per-stage byte counters as the serial one, plus its own worker/pool
// instruments.
func TestParallelEncodeObs(t *testing.T) {
	run := func(workers int) obs.Snapshot {
		reg := obs.NewRegistry()
		var buf bytes.Buffer
		enc, err := NewEncoder(&buf, EncoderOptions{ChunkEvents: 64, EncodeWorkers: workers, Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		driveEncoder(t, enc, 13, 1500, 120)
		return reg.Snapshot()
	}
	serial, parallel := run(1), run(4)
	for _, name := range []string{"encode.chunks", "encode.bytes.raw", "encode.bytes.re",
		"encode.bytes.pe", "encode.bytes.lpe", "encode.bytes.gzip"} {
		if s, p := serial.Counter(name), parallel.Counter(name); s != p {
			t.Errorf("%s: serial %d, parallel %d", name, s, p)
		}
	}
	if parallel.Counter("encode.pool.hit") == 0 {
		t.Error("no builder pool hits recorded")
	}
	if parallel.Gauge("encode.workers.busy").Max < 1 {
		t.Error("worker busy gauge never rose")
	}
	if h := parallel.Histogram("encode.stage.ns"); h.Count == 0 {
		t.Error("no encode-stage latency observations")
	}
}

// failAfterWriter fails every write after the first n bytes, simulating a
// full disk mid-record.
type failAfterWriter struct {
	n       int
	written int
}

var errDiskFull = errors.New("disk full")

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.n {
		return 0, errDiskFull
	}
	w.written += len(p)
	return len(p), nil
}

// TestParallelEncodeWriteError checks that a committer-side write error
// latches, surfaces from the driving goroutine, and does not hang Close —
// the pipeline's no-deadlock property under failure.
func TestParallelEncodeWriteError(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	events := synthEvents(rng, 5000, 4, 4)
	enc, err := NewEncoder(&failAfterWriter{n: 256}, EncoderOptions{
		ChunkEvents: 32, EncodeWorkers: 4, GzipLevel: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sawErr bool
	for i, ev := range events {
		if err := enc.Observe(0, ev); err != nil {
			sawErr = errors.Is(err, errDiskFull)
			break
		}
		if i%100 == 99 {
			if err := enc.FlushAll(0); err != nil {
				sawErr = errors.Is(err, errDiskFull)
				break
			}
		}
	}
	closeErr := enc.Close()
	if !sawErr && !errors.Is(closeErr, errDiskFull) {
		t.Fatalf("disk-full error never surfaced (close err: %v)", closeErr)
	}
	if err := enc.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestParallelEncodeStress hammers the pipeline with randomized chunk
// sizes, worker counts, and flush cadences. Run under -race it is the
// worker-pool stress test: the Builder pool, job recycling, the stats
// atomics, and the ordered committer all operate concurrently here.
func TestParallelEncodeStress(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		workers := 2 + rng.Intn(7)
		chunk := 1 + rng.Intn(200)
		flushEvery := rng.Intn(60)
		seed := rng.Int63()
		n := 500 + rng.Intn(2500)

		var serial, parallel bytes.Buffer
		enc, err := NewEncoder(&serial, EncoderOptions{ChunkEvents: chunk, GzipLevel: 1})
		if err != nil {
			t.Fatal(err)
		}
		driveEncoder(t, enc, seed, n, flushEvery)
		penc, err := NewEncoder(&parallel, EncoderOptions{
			ChunkEvents: chunk, GzipLevel: 1, EncodeWorkers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		driveEncoder(t, penc, seed, n, flushEvery)
		if !bytes.Equal(parallel.Bytes(), serial.Bytes()) {
			t.Fatalf("trial %d (workers=%d chunk=%d flush=%d): output differs",
				trial, workers, chunk, flushEvery)
		}
		// The parallel record must decode like any other.
		rec, err := drainAll(bytes.NewReader(parallel.Bytes()))
		if err != nil {
			t.Fatalf("trial %d: decoding parallel record: %v", trial, err)
		}
		if len(rec.Chunks) == 0 {
			t.Fatalf("trial %d: parallel record decoded empty", trial)
		}
	}
}

// TestOpenRecordStreams checks the streaming iterator against DrainRecord on
// the same bytes: same chunks in the same order, same names, same totals.
func TestOpenRecordStreams(t *testing.T) {
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf, EncoderOptions{ChunkEvents: 64})
	if err != nil {
		t.Fatal(err)
	}
	driveEncoder(t, enc, 7, 1000, 90)

	want, err := drainAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	it, err := OpenRecord(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	gotChunks := map[uint64]int{}
	var frames int
	for {
		f, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		frames++
		if f.Chunk != nil {
			gotChunks[f.Chunk.Callsite]++
		}
	}
	for cs, chunks := range want.Chunks {
		if gotChunks[cs] != len(chunks) {
			t.Errorf("callsite %d: iterator saw %d chunks, DrainRecord %d", cs, gotChunks[cs], len(chunks))
		}
	}
	if !reflect.DeepEqual(it.Names(), want.Names) {
		t.Errorf("names diverge: iterator %v, DrainRecord %v", it.Names(), want.Names)
	}
	if uint64(frames) != it.Frames() {
		t.Errorf("frame count: %d yielded, %d reported", frames, it.Frames())
	}
	if it.Events() == 0 || it.FlushPoints() == 0 {
		t.Errorf("totals not accumulated: events=%d flushPoints=%d", it.Events(), it.FlushPoints())
	}
}

// TestOpenRecordTruncated checks the iterator surfaces truncation with the
// intact-prefix description, like FrameReader does.
func TestOpenRecordTruncated(t *testing.T) {
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf, EncoderOptions{ChunkEvents: 32})
	if err != nil {
		t.Fatal(err)
	}
	driveEncoder(t, enc, 11, 400, 50)
	it, err := OpenRecord(bytes.NewReader(buf.Bytes()[:buf.Len()-20]))
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	for {
		_, err := it.Next()
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrTruncatedRecord) {
			t.Fatalf("want ErrTruncatedRecord, got %v", err)
		}
		return
	}
}

func BenchmarkEncodeWorkers(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	events := synthEvents(rng, 100_000, 8, 4)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(len(events)))
			for i := 0; i < b.N; i++ {
				enc, err := NewEncoder(io.Discard, EncoderOptions{EncodeWorkers: workers})
				if err != nil {
					b.Fatal(err)
				}
				for _, ev := range events {
					if err := enc.Observe(0, ev); err != nil {
						b.Fatal(err)
					}
				}
				if err := enc.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
