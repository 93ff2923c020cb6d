package core

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"cdcreplay/internal/cdcformat"
	"cdcreplay/internal/varint"
)

// ErrTruncatedRecord marks a record whose tail is missing or damaged — the
// expected state of a record whose writer crashed. Errors carrying it are
// *TruncatedRecordError values describing the intact prefix, so callers can
// salvage rather than give up; match with errors.Is(err, ErrTruncatedRecord).
var ErrTruncatedRecord = errors.New("core: record truncated")

// TruncatedRecordError reports damage past a CRC-valid prefix. Every frame
// counted was verified intact; the damage begins strictly after them.
type TruncatedRecordError struct {
	// Frames is the number of intact frames before the damage.
	Frames uint64
	// Events is the number of matched receive events those frames hold —
	// the salvageable event count.
	Events uint64
	// FlushPoints is the number of intact flush-point marks; salvage cuts
	// the record at the last one.
	FlushPoints uint64
	// Cause is the underlying decode failure.
	Cause error
}

func (e *TruncatedRecordError) Error() string {
	return fmt.Sprintf("core: record truncated after %d intact frame(s), %d event(s), %d flush point(s): %v",
		e.Frames, e.Events, e.FlushPoints, e.Cause)
}

// Is makes errors.Is(err, ErrTruncatedRecord) match.
func (e *TruncatedRecordError) Is(target error) bool { return target == ErrTruncatedRecord }

// Unwrap exposes the underlying decode failure.
func (e *TruncatedRecordError) Unwrap() error { return e.Cause }

// Frame is one decoded record-stream frame.
type Frame struct {
	// Kind and Payload are the raw frame content, for tooling (salvage)
	// that re-emits frames verbatim.
	Kind    byte
	Payload []byte
	// Chunk is non-nil for chunk frames.
	Chunk *cdcformat.Chunk
	// CallsiteID and CallsiteName are set for callsite-name frames.
	CallsiteID   uint64
	CallsiteName string
	// Flush marks a flush-point frame (a consistent cut); FlushClock is the
	// writing rank's Lamport clock lower bound at that cut.
	Flush      bool
	FlushClock uint64
}

// FrameReader decodes a record file incrementally, one frame at a time,
// without materializing the whole stream — the memory-bounded path a
// replay-side CDC thread would use (paper Fig. 11's decode box).
// RecordIter is built on top of it.
//
// Every frame's CRC32 trailer is verified before the frame is returned. On
// a damaged or truncated stream, Next returns a *TruncatedRecordError
// (matching ErrTruncatedRecord) describing the intact prefix; it never
// panics, whatever the input bytes.
type FrameReader struct {
	zr  *gzip.Reader
	br  *bufio.Reader
	err error

	frames      uint64
	events      uint64
	flushPoints uint64
}

// NewFrameReader validates the magic and opens the gzip stream. A file too
// short to hold them yields a *TruncatedRecordError with an empty prefix; a
// present-but-wrong magic is a format error, not truncation.
func NewFrameReader(rd io.Reader) (*FrameReader, error) {
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(rd, magic); err != nil {
		return nil, &TruncatedRecordError{Cause: fmt.Errorf("core: reading magic: %w", noEOF(err))}
	}
	if string(magic) != Magic {
		return nil, fmt.Errorf("core: bad magic %q", magic)
	}
	zr, err := gzip.NewReader(rd)
	if err != nil {
		return nil, &TruncatedRecordError{Cause: fmt.Errorf("core: opening gzip stream: %w", noEOF(err))}
	}
	return &FrameReader{zr: zr, br: bufio.NewReader(zr)}, nil
}

// NewFrameReaderAt opens a frame stream positioned mid-blob, at a gzip
// member boundary — the committed index offsets of a record written with
// EncoderOptions.SeekableCuts. No magic is expected: rd must start exactly
// on the boundary (offset zero of a record file has the magic in the way;
// use NewFrameReader there). Callsite-name frames before the seek point
// are not replayed, so names resolve only for callsites registered at or
// after it.
func NewFrameReaderAt(rd io.Reader) (*FrameReader, error) {
	zr, err := gzip.NewReader(rd)
	if err != nil {
		return nil, &TruncatedRecordError{Cause: fmt.Errorf("core: opening gzip member: %w", noEOF(err))}
	}
	return &FrameReader{zr: zr, br: bufio.NewReader(zr)}, nil
}

// OpenRecordAt is NewFrameReaderAt's RecordIter form: a streaming iterator
// over the frames from a mid-blob gzip member boundary onward.
func OpenRecordAt(rd io.Reader) (*RecordIter, error) {
	fr, err := NewFrameReaderAt(rd)
	if err != nil {
		return nil, err
	}
	return &RecordIter{src: fr, names: make(map[uint64]string)}, nil
}

// Frames reports the number of CRC-verified frames returned so far.
func (fr *FrameReader) Frames() uint64 { return fr.frames }

// Events reports the matched receive events in the verified frames so far.
func (fr *FrameReader) Events() uint64 { return fr.events }

// FlushPoints reports the flush-point marks seen so far.
func (fr *FrameReader) FlushPoints() uint64 { return fr.flushPoints }

// readUvarint decodes one unsigned varint from the buffered stream.
func (fr *FrameReader) readUvarint() (uint64, []byte, error) {
	var u uint64
	var shift uint
	var raw []byte
	for i := 0; ; i++ {
		if i == 10 {
			return 0, nil, varint.ErrOverflow
		}
		b, err := fr.br.ReadByte()
		if err != nil {
			return 0, nil, err
		}
		raw = append(raw, b)
		u |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return u, raw, nil
		}
		shift += 7
	}
}

// rawFrame is one frame's undecoded wire form: the framing fields a serial
// scan must read in stream order, with CRC verification and payload parsing
// deferred — possibly to a decode worker (decode.go).
type rawFrame struct {
	kind     byte
	lenBytes []byte
	payload  []byte
	trailer  [4]byte
}

// readRaw scans one frame's wire fields off the stream without verifying or
// parsing them. It returns io.EOF at a clean end of stream; any other error
// is the undecorated truncation cause (the caller wraps it into a
// *TruncatedRecordError with its own prefix counts).
func (fr *FrameReader) readRaw() (rawFrame, error) {
	var raw rawFrame
	kind, err := fr.br.ReadByte()
	if err == io.EOF {
		return raw, io.EOF
	}
	if err != nil {
		return raw, fmt.Errorf("core: frame kind: %w", err)
	}
	raw.kind = kind
	n, lenBytes, err := fr.readUvarint()
	if err != nil {
		return raw, fmt.Errorf("core: frame length: %w", noEOF(err))
	}
	raw.lenBytes = lenBytes
	if n > maxFrameLen {
		return raw, fmt.Errorf("core: frame too large: %d", n)
	}
	// Stream the payload instead of trusting n with one up-front allocation:
	// a corrupt length field on a short stream then costs only the bytes
	// actually present, not a maxFrameLen-sized zeroed buffer.
	var pbuf bytes.Buffer
	if _, err := io.CopyN(&pbuf, fr.br, int64(n)); err != nil {
		return raw, fmt.Errorf("core: frame payload: %w", noEOF(err))
	}
	raw.payload = pbuf.Bytes()
	if _, err := io.ReadFull(fr.br, raw.trailer[:]); err != nil {
		return raw, fmt.Errorf("core: frame CRC trailer: %w", noEOF(err))
	}
	return raw, nil
}

// parseFrame verifies raw's CRC trailer and decodes its payload into a
// Frame. It reads no shared state, so decode workers call it concurrently
// on raw frames the serial scan produced.
func parseFrame(raw rawFrame) (*Frame, error) {
	crc := crc32.ChecksumIEEE([]byte{raw.kind})
	crc = crc32.Update(crc, crc32.IEEETable, raw.lenBytes)
	crc = crc32.Update(crc, crc32.IEEETable, raw.payload)
	if want := binary.LittleEndian.Uint32(raw.trailer[:]); crc != want {
		return nil, fmt.Errorf("core: frame CRC mismatch: computed %08x, stored %08x", crc, want)
	}
	f := &Frame{Kind: raw.kind, Payload: raw.payload}
	pr := varint.NewReader(raw.payload)
	switch raw.kind {
	case frameChunk:
		chunk, err := cdcformat.Unmarshal(pr)
		if err != nil {
			return nil, err
		}
		if pr.Len() != 0 {
			return nil, fmt.Errorf("core: %d trailing bytes in chunk frame", pr.Len())
		}
		f.Chunk = chunk
	case frameCallsite:
		id, err := pr.Uint()
		if err != nil {
			return nil, fmt.Errorf("core: callsite id: %w", err)
		}
		name, err := pr.Bytes()
		if err != nil {
			return nil, fmt.Errorf("core: callsite name: %w", err)
		}
		f.CallsiteID, f.CallsiteName = id, string(name)
	case frameFlush:
		clock, err := pr.Uint()
		if err != nil {
			return nil, fmt.Errorf("core: flush frame clock: %w", err)
		}
		if pr.Len() != 0 {
			return nil, fmt.Errorf("core: %d trailing bytes in flush frame", pr.Len())
		}
		f.Flush = true
		f.FlushClock = clock
	default:
		return nil, fmt.Errorf("core: unknown frame kind %d", raw.kind)
	}
	return f, nil
}

// Next returns the next verified frame, io.EOF at a clean end of stream, or
// a *TruncatedRecordError where the intact prefix ends.
func (fr *FrameReader) Next() (*Frame, error) {
	if fr.err != nil {
		return nil, fr.err
	}
	raw, err := fr.readRaw()
	if err == io.EOF {
		fr.err = io.EOF
		return nil, io.EOF
	}
	if err != nil {
		return nil, fr.fail(err)
	}
	f, err := parseFrame(raw)
	if err != nil {
		return nil, fr.fail(err)
	}
	fr.count(f)
	return f, nil
}

// count folds one delivered frame into the intact-prefix counters.
func (fr *FrameReader) count(f *Frame) {
	fr.frames++
	if f.Chunk != nil {
		fr.events += f.Chunk.NumMatched
	}
	if f.Flush {
		fr.flushPoints++
	}
}

// Close releases the gzip reader. It does not close the underlying reader.
func (fr *FrameReader) Close() error { return fr.zr.Close() }

// frameSource is the decode engine behind a RecordIter: the serial
// FrameReader, or one of the parallel pipelines in decode.go. Whatever the
// engine, frames arrive in stream order and the counters report the
// delivered frontier, so a *TruncatedRecordError carries the same
// intact-prefix counts however many workers ran.
type frameSource interface {
	Next() (*Frame, error)
	Frames() uint64
	Events() uint64
	FlushPoints() uint64
	Close() error
}

var _ frameSource = (*FrameReader)(nil)

// RecordIter is the one streaming record-access API: Next yields one
// verified frame at a time, accumulating callsite names as they stream
// past, so tooling and replay walk records of any size in bounded memory
// instead of materializing a *Record. Every other reader in the repo —
// DrainRecord, store.LoadRank, the cdc facade's RecordReader — is a thin
// wrapper over it, and DecoderOptions decides
// whether the frames behind it are decoded serially or by a worker pool
// (see OpenRecordOptions).
//
// A RecordIter is not safe for concurrent use. Close releases the
// decompressor but, like FrameReader, does not close the underlying reader.
type RecordIter struct {
	src   frameSource
	names map[uint64]string
}

// OpenRecord validates the record magic and returns a streaming iterator
// over its frames, decoded serially. For a pooled decode, pass
// DecoderOptions to OpenRecordOptions instead.
func OpenRecord(rd io.Reader) (*RecordIter, error) {
	fr, err := NewFrameReader(rd)
	if err != nil {
		return nil, err
	}
	return &RecordIter{src: fr, names: make(map[uint64]string)}, nil
}

// Next returns the next verified frame, io.EOF at a clean end of stream, or
// a *TruncatedRecordError where the intact prefix ends. Callsite-name
// frames are returned like any other, after registering in Names.
func (it *RecordIter) Next() (*Frame, error) {
	f, err := it.src.Next()
	if err != nil {
		return nil, err
	}
	if f.Kind == frameCallsite {
		it.names[f.CallsiteID] = f.CallsiteName
	}
	return f, nil
}

// Names maps callsite IDs to registered names, for the frames seen so far.
// The map is live: later Next calls may add entries.
func (it *RecordIter) Names() map[uint64]string { return it.names }

// Frames reports the number of CRC-verified frames returned so far.
func (it *RecordIter) Frames() uint64 { return it.src.Frames() }

// Events reports the matched receive events in the verified frames so far.
func (it *RecordIter) Events() uint64 { return it.src.Events() }

// FlushPoints reports the flush-point marks seen so far.
func (it *RecordIter) FlushPoints() uint64 { return it.src.FlushPoints() }

// Close releases the decode engine (for a pooled decode: stops its
// workers). It does not close the underlying reader.
func (it *RecordIter) Close() error { return it.src.Close() }

// fail latches the stream as damaged past the current intact prefix.
func (fr *FrameReader) fail(cause error) error {
	fr.err = &TruncatedRecordError{
		Frames:      fr.frames,
		Events:      fr.events,
		FlushPoints: fr.flushPoints,
		Cause:       cause,
	}
	return fr.err
}

// noEOF upgrades a bare EOF inside a frame to ErrUnexpectedEOF: the stream
// ended mid-frame, which is corruption, not a clean end.
func noEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}
