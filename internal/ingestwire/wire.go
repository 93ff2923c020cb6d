// Package ingestwire defines the cdcd ingest wire protocol: the
// length-prefixed, CRC-trailed frames a recording application instance
// exchanges with the ingest daemon over TCP, and the session handshake
// that names a (tenant, run, rank) stream and its resume offset.
//
// Layout of one frame on the wire:
//
//	length  uint32 LE   — byte length of kind+payload (bounded by MaxFrame)
//	kind    byte
//	payload []byte      — varint-encoded fields, per kind
//	crc     uint32 LE   — CRC32 (IEEE) over kind+payload
//
// The CRC mirrors the record file's per-frame trailer discipline: TCP
// already checksums the pipe, but the trailer catches framing desync after
// a torn write (the netfault partial-write case) deterministically instead
// of letting a corrupted length walk the parser into garbage.
//
// Offsets are measured in logical events: a matched receive counts one, an
// unmatched-test row counts its aggregation Count. Chunk boundaries in the
// record always fall between wire rows, so a server-stated resume offset
// is always a row boundary the client can cut its retransmit buffer at.
package ingestwire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"cdcreplay/internal/tables"
	"cdcreplay/internal/varint"
)

// Version is the protocol version carried in Hello. A daemon rejects
// handshakes from other versions with RejectVersion.
const Version = 1

// MaxFrame bounds one frame's kind+payload length: a corrupted or
// malicious length prefix may not force an arbitrary allocation.
const MaxFrame = 1 << 20

// MaxName bounds tenant/run/callsite-name strings.
const MaxName = 256

// Frame kinds.
const (
	// KindHello opens a session: client → server.
	KindHello byte = 0x01
	// KindWelcome accepts the session and states the resume offset.
	KindWelcome byte = 0x02
	// KindReject refuses the session with a RejectCode and closes.
	KindReject byte = 0x03
	// KindEvents carries a batch of event rows: client → server.
	KindEvents byte = 0x04
	// KindAck states the durable, run-consistent offset: server → client.
	// Every event at or below an acked offset survives a daemon crash.
	KindAck byte = 0x05
	// KindThrottle toggles backpressure: payload 1 pauses the client's
	// sender, 0 resumes it. Rows already in flight are still accepted.
	KindThrottle byte = 0x06
	// KindDrain announces the server is draining: the client should flush
	// what it has buffered and Finish.
	KindDrain byte = 0x07
	// KindFinish ends the stream: client → server, carrying the client's
	// total logical-event offset as a cross-check.
	KindFinish byte = 0x08
	// KindDone confirms the finished rank is flushed and its offset
	// acked as far as run consistency allows: server → client.
	KindDone byte = 0x09
	// KindError reports a fatal mid-stream condition (quota exhaustion,
	// malformed row) before the server closes the connection.
	KindError byte = 0x0a
)

// RejectCode classifies a refused handshake or a fatal mid-stream error.
type RejectCode uint8

const (
	// RejectVersion: protocol version mismatch. Not retryable.
	RejectVersion RejectCode = 1
	// RejectMalformed: the frame or a row failed to parse. Not retryable.
	RejectMalformed RejectCode = 2
	// RejectQuotaSessions: the tenant is at its concurrent-session quota.
	// Retryable — a slot frees when another session finishes.
	RejectQuotaSessions RejectCode = 3
	// RejectQuotaDisk: the tenant is over its disk quota. Not retryable
	// until an operator raises the quota or removes records.
	RejectQuotaDisk RejectCode = 4
	// RejectRankBusy: another live session holds this (run, rank).
	// Retryable — the usual cause is the daemon still draining the
	// previous connection's queue after a client-side reconnect.
	RejectRankBusy RejectCode = 5
	// RejectRanksConflict: the run exists with a different world size.
	// Not retryable.
	RejectRanksConflict RejectCode = 6
	// RejectDraining: the server is draining and accepts no new
	// sessions. Retryable — a restarted daemon will accept.
	RejectDraining RejectCode = 7
)

// Retryable reports whether a client should retry after this code.
func (c RejectCode) Retryable() bool {
	switch c {
	case RejectQuotaSessions, RejectRankBusy, RejectDraining:
		return true
	}
	return false
}

func (c RejectCode) String() string {
	switch c {
	case RejectVersion:
		return "version"
	case RejectMalformed:
		return "malformed"
	case RejectQuotaSessions:
		return "quota-sessions"
	case RejectQuotaDisk:
		return "quota-disk"
	case RejectRankBusy:
		return "rank-busy"
	case RejectRanksConflict:
		return "ranks-conflict"
	case RejectDraining:
		return "draining"
	}
	return fmt.Sprintf("reject(%d)", uint8(c))
}

// ErrBadFrame marks a frame that failed length, CRC, or payload
// validation; the connection is unusable past it (framing is lost).
var ErrBadFrame = errors.New("ingestwire: bad frame")

// Hello is the session handshake: which tenant and run this stream
// belongs to, which rank of the run it carries, and the run's world size.
type Hello struct {
	Version int
	Tenant  string
	Run     string
	Rank    int
	Ranks   int
	// Resume is the client's acked offset at dial time, informational
	// (the server's Welcome offset is authoritative).
	Resume uint64
}

// Welcome accepts a session. Offset is the server's logical-event frontier
// for the rank: the client must resend everything after it and nothing at
// or before it.
type Welcome struct {
	Session uint64
	Offset  uint64
}

// Reject refuses a session or kills a stream.
type Reject struct {
	Code RejectCode
	Msg  string
}

// Row is one event row on the wire, the unit the daemon feeds to the
// encode pipeline.
type Row struct {
	// Callsite identifies the MF callsite stream.
	Callsite uint64
	// Name registers the callsite's name; sent on a callsite's first row
	// of each connection, empty afterwards.
	Name string
	// Clock is the producing rank's own Lamport clock at the row, stamped
	// into flush-point marks for salvage frontier math.
	Clock uint64
	// Ev is the event row itself.
	Ev tables.Event
}

// Weight is the row's logical-event count: 1 for a matched receive, the
// aggregation count for an unmatched-test row.
func (r Row) Weight() uint64 {
	if r.Ev.Flag {
		return 1
	}
	return r.Ev.Count
}

// row flag bits.
const (
	rowMatched  = 1 << 0
	rowWithNext = 1 << 1
	rowNamed    = 1 << 2
)

// AppendRow serializes one row.
func AppendRow(dst []byte, r Row) []byte {
	var flags byte
	if r.Ev.Flag {
		flags |= rowMatched
	}
	if r.Ev.WithNext {
		flags |= rowWithNext
	}
	if r.Name != "" {
		flags |= rowNamed
	}
	dst = append(dst, flags)
	dst = varint.AppendUint(dst, r.Callsite)
	if r.Name != "" {
		dst = varint.AppendUint(dst, uint64(len(r.Name)))
		dst = append(dst, r.Name...)
	}
	dst = varint.AppendUint(dst, r.Clock)
	if r.Ev.Flag {
		dst = varint.AppendInt(dst, int64(r.Ev.Rank))
		dst = varint.AppendInt(dst, int64(r.Ev.Tag))
		dst = varint.AppendUint(dst, r.Ev.Clock)
	} else {
		dst = varint.AppendUint(dst, r.Ev.Count)
	}
	return dst
}

// DecodeRows parses an Events payload.
func DecodeRows(payload []byte) ([]Row, error) {
	rd := varint.NewReader(payload)
	n, err := rd.Uint()
	if err != nil {
		return nil, badFrame("events count: %v", err)
	}
	if n > MaxFrame {
		return nil, badFrame("events count %d exceeds frame bound", n)
	}
	// Every row takes at least one byte, so a count beyond the bytes left
	// is corrupt; checking it first bounds the allocation by the payload.
	if n > uint64(rd.Len()) {
		return nil, badFrame("events count %d exceeds the %d bytes left", n, rd.Len())
	}
	rows := make([]Row, 0, n)
	for i := uint64(0); i < n; i++ {
		r, err := decodeRow(rd)
		if err != nil {
			return nil, badFrame("row %d: %v", i, err)
		}
		rows = append(rows, r)
	}
	if rd.Len() != 0 {
		return nil, badFrame("%d trailing bytes after %d rows", rd.Len(), n)
	}
	return rows, nil
}

func decodeRow(rd *varint.Reader) (Row, error) {
	var r Row
	flagsU, err := rd.Uint()
	if err != nil {
		return r, err
	}
	if flagsU > 0xff {
		return r, fmt.Errorf("flags %#x out of range", flagsU)
	}
	flags := byte(flagsU)
	if r.Callsite, err = rd.Uint(); err != nil {
		return r, err
	}
	if flags&rowNamed != 0 {
		name, err := rd.Bytes()
		if err != nil {
			return r, err
		}
		if len(name) == 0 || len(name) > MaxName {
			return r, fmt.Errorf("name length %d out of range", len(name))
		}
		r.Name = string(name)
	}
	if r.Clock, err = rd.Uint(); err != nil {
		return r, err
	}
	if flags&rowMatched != 0 {
		r.Ev.Flag = true
		r.Ev.WithNext = flags&rowWithNext != 0
		r.Ev.Count = 1
		src, err := rd.Int()
		if err != nil {
			return r, err
		}
		tag, err := rd.Int()
		if err != nil {
			return r, err
		}
		if src < -(1<<31) || src >= 1<<31 || tag < -(1<<31) || tag >= 1<<31 {
			return r, fmt.Errorf("source %d or tag %d out of int32 range", src, tag)
		}
		r.Ev.Rank = int32(src)
		r.Ev.Tag = int32(tag)
		if r.Ev.Clock, err = rd.Uint(); err != nil {
			return r, err
		}
	} else {
		count, err := rd.Uint()
		if err != nil {
			return r, err
		}
		if count == 0 {
			return r, errors.New("unmatched row with zero count")
		}
		r.Ev.Count = count
	}
	return r, nil
}

// Conn frames an io.ReadWriter. Reads and writes keep separate buffers, so
// one goroutine may read while another writes; concurrent use of the SAME
// direction needs external serialization (the daemon guards each session's
// conn with a write mutex).
type Conn struct {
	rw   io.ReadWriter
	rbuf []byte
	wbuf []byte
	head [4]byte
}

// NewConn wraps rw for framed exchange.
func NewConn(rw io.ReadWriter) *Conn { return &Conn{rw: rw} }

// WriteFrame emits one frame.
func (c *Conn) WriteFrame(kind byte, payload []byte) error {
	n := 1 + len(payload)
	if n > MaxFrame {
		return badFrame("frame length %d exceeds bound", n)
	}
	buf := c.wbuf[:0]
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	buf = append(buf, kind)
	buf = append(buf, payload...)
	crc := crc32.ChecksumIEEE(buf[4:])
	buf = binary.LittleEndian.AppendUint32(buf, crc)
	_, err := c.rw.Write(buf)
	c.wbuf = buf
	return err
}

// ReadFrame reads and verifies one frame. The returned payload aliases an
// internal buffer valid until the next ReadFrame.
func (c *Conn) ReadFrame() (kind byte, payload []byte, err error) {
	if _, err := io.ReadFull(c.rw, c.head[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(c.head[:])
	if n == 0 || n > MaxFrame {
		return 0, nil, badFrame("length %d out of range", n)
	}
	need := int(n) + 4 // kind+payload plus CRC trailer
	if cap(c.rbuf) < need {
		c.rbuf = make([]byte, need)
	}
	buf := c.rbuf[:need]
	if _, err := io.ReadFull(c.rw, buf); err != nil {
		// A torn frame after an intact header reads as unexpected EOF;
		// normalize so callers treat it like any other conn failure.
		return 0, nil, err
	}
	body, trailer := buf[:n], buf[n:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return 0, nil, badFrame("crc mismatch on %d-byte frame", n)
	}
	return body[0], body[1:], nil
}

// WriteHello sends the handshake.
func (c *Conn) WriteHello(h Hello) error {
	var w varint.Writer
	w.Uint(uint64(h.Version))
	w.Bytes([]byte(h.Tenant))
	w.Bytes([]byte(h.Run))
	w.Uint(uint64(h.Rank))
	w.Uint(uint64(h.Ranks))
	w.Uint(h.Resume)
	return c.WriteFrame(KindHello, w.Result())
}

// ParseHello decodes a Hello payload.
func ParseHello(payload []byte) (Hello, error) {
	var h Hello
	rd := varint.NewReader(payload)
	v, err := rd.Uint()
	if err != nil {
		return h, badFrame("hello version: %v", err)
	}
	h.Version = int(v)
	tenant, err := rd.Bytes()
	if err != nil {
		return h, badFrame("hello tenant: %v", err)
	}
	run, err := rd.Bytes()
	if err != nil {
		return h, badFrame("hello run: %v", err)
	}
	if len(tenant) == 0 || len(tenant) > MaxName || len(run) == 0 || len(run) > MaxName {
		return h, badFrame("hello tenant/run length out of range")
	}
	h.Tenant, h.Run = string(tenant), string(run)
	rank, err := rd.Uint()
	if err != nil {
		return h, badFrame("hello rank: %v", err)
	}
	ranks, err := rd.Uint()
	if err != nil {
		return h, badFrame("hello ranks: %v", err)
	}
	if ranks == 0 || ranks > 1<<16 || rank >= ranks {
		return h, badFrame("hello rank %d of %d out of range", rank, ranks)
	}
	h.Rank, h.Ranks = int(rank), int(ranks)
	if h.Resume, err = rd.Uint(); err != nil {
		return h, badFrame("hello resume: %v", err)
	}
	return h, nil
}

// WriteWelcome sends the acceptance.
func (c *Conn) WriteWelcome(w Welcome) error {
	var vw varint.Writer
	vw.Uint(w.Session)
	vw.Uint(w.Offset)
	return c.WriteFrame(KindWelcome, vw.Result())
}

// ParseWelcome decodes a Welcome payload.
func ParseWelcome(payload []byte) (Welcome, error) {
	var w Welcome
	rd := varint.NewReader(payload)
	var err error
	if w.Session, err = rd.Uint(); err != nil {
		return w, badFrame("welcome session: %v", err)
	}
	if w.Offset, err = rd.Uint(); err != nil {
		return w, badFrame("welcome offset: %v", err)
	}
	return w, nil
}

// WriteReject sends a refusal (also used for KindError payloads).
func (c *Conn) WriteReject(kind byte, r Reject) error {
	var w varint.Writer
	w.Uint(uint64(r.Code))
	w.Bytes([]byte(r.Msg))
	return c.WriteFrame(kind, w.Result())
}

// ParseReject decodes a Reject/Error payload.
func ParseReject(payload []byte) (Reject, error) {
	var r Reject
	rd := varint.NewReader(payload)
	code, err := rd.Uint()
	if err != nil {
		return r, badFrame("reject code: %v", err)
	}
	msg, err := rd.Bytes()
	if err != nil {
		return r, badFrame("reject message: %v", err)
	}
	r.Code = RejectCode(code)
	r.Msg = string(msg)
	return r, nil
}

// WriteEvents sends a row batch.
func (c *Conn) WriteEvents(rows []Row) error {
	buf := varint.AppendUint(nil, uint64(len(rows)))
	for _, r := range rows {
		buf = AppendRow(buf, r)
	}
	return c.WriteFrame(KindEvents, buf)
}

// WriteOffset sends a bare-offset frame (Ack, Finish, Done).
func (c *Conn) WriteOffset(kind byte, offset uint64) error {
	return c.WriteFrame(kind, varint.AppendUint(nil, offset))
}

// ParseOffset decodes a bare-offset payload.
func ParseOffset(payload []byte) (uint64, error) {
	rd := varint.NewReader(payload)
	off, err := rd.Uint()
	if err != nil {
		return 0, badFrame("offset: %v", err)
	}
	return off, nil
}

// WriteThrottle sends a backpressure toggle.
func (c *Conn) WriteThrottle(on bool) error {
	b := byte(0)
	if on {
		b = 1
	}
	return c.WriteFrame(KindThrottle, []byte{b})
}

// ParseThrottle decodes a throttle payload.
func ParseThrottle(payload []byte) (bool, error) {
	if len(payload) != 1 || payload[0] > 1 {
		return false, badFrame("throttle payload %v", payload)
	}
	return payload[0] == 1, nil
}

func badFrame(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadFrame, fmt.Sprintf(format, args...))
}
