// Command cdcinspect inspects CDC record files and record directories.
// All subcommands stream frames through core.OpenRecord, so arbitrarily
// large records inspect in constant memory.
//
// Usage:
//
//	cdcinspect verify  [-json] <record-file>...      # CRC scan; exit 1 if damaged
//	cdcinspect salvage [-json] <record-dir>          # recover a crashed run in place
//	cdcinspect salvage [-json] -o <out> <record-dir> # dir layout: recover into a copy
//	cdcinspect stats   [-json] [-decode-workers N] <record-file>...  # callsite/chunk summary
//	cdcinspect dump    [-json] [-decode-workers N] <record-file>     # per-chunk tables
//	cdcinspect feed    [-rank N] [-rate R | -max] [-http addr] <record-dir>  # live-paced replay
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"cdcreplay/cdc"
	"cdcreplay/internal/core"
	"cdcreplay/internal/store"
	"cdcreplay/internal/store/dirstore"
)

func usage() {
	fmt.Fprint(os.Stderr, `usage: cdcinspect <command> [flags] <args>

Commands:
  verify   CRC-scan record files; exit 1 if any is truncated or damaged
  salvage  recover a replayable prefix from a crashed record directory
  stats    per-callsite summary of record files
  dump     stats plus per-chunk tables for one record file
  feed     play a rank's record as a live-paced event feed

Run 'cdcinspect <command> -h' for command flags.
`)
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "verify":
		os.Exit(cmdVerify(args))
	case "salvage":
		os.Exit(cmdSalvage(args))
	case "stats":
		os.Exit(cmdStats(args))
	case "dump":
		os.Exit(cmdDump(args))
	case "feed":
		os.Exit(cmdFeed(args))
	case "-h", "-help", "--help", "help":
		usage()
		os.Exit(0)
	default:
		fmt.Fprintf(os.Stderr, "cdcinspect: unknown command %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
}

// emitJSON writes v as indented JSON on stdout.
func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fmt.Fprintf(os.Stderr, "cdcinspect: %v\n", err)
		os.Exit(1)
	}
}

// verifyResult is one file's CRC-scan outcome.
type verifyResult struct {
	File        string `json:"file"`
	OK          bool   `json:"ok"`
	Truncated   bool   `json:"truncated,omitempty"`
	Frames      uint64 `json:"frames"`
	Events      uint64 `json:"events"`
	FlushPoints uint64 `json:"flush_points"`
	Error       string `json:"error,omitempty"`
}

func cmdVerify(args []string) int {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: cdcinspect verify [-json] <record-file>...")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() < 1 {
		fs.Usage()
		return 2
	}
	code := 0
	var results []verifyResult
	for _, path := range fs.Args() {
		r := verifyFile(path)
		if !r.OK {
			code = 1
		}
		if *jsonOut {
			results = append(results, r)
			continue
		}
		switch {
		case r.OK:
			fmt.Printf("%s: ok: %d frames, %d events, %d flush points\n",
				r.File, r.Frames, r.Events, r.FlushPoints)
		case r.Truncated:
			fmt.Printf("%s: TRUNCATED after %d intact frames (%d events, %d flush points): %s\n",
				r.File, r.Frames, r.Events, r.FlushPoints, r.Error)
		default:
			fmt.Printf("%s: DAMAGED: %s\n", r.File, r.Error)
		}
	}
	if *jsonOut {
		emitJSON(results)
	}
	return code
}

// verifyFile CRC-scans one record file and reports its intact prefix.
func verifyFile(path string) verifyResult {
	r := verifyResult{File: path}
	f, err := os.Open(path)
	if err != nil {
		r.Error = err.Error()
		return r
	}
	defer f.Close()
	it, err := core.OpenRecord(f)
	if err == nil {
		defer it.Close()
		for err == nil {
			_, err = it.Next()
		}
		r.Frames, r.Events, r.FlushPoints = it.Frames(), it.Events(), it.FlushPoints()
		if err == io.EOF {
			r.OK = true
			return r
		}
	}
	var trunc *core.TruncatedRecordError
	if errors.As(err, &trunc) {
		r.Truncated = true
		r.Frames, r.Events, r.FlushPoints = trunc.Frames, trunc.Events, trunc.FlushPoints
		r.Error = trunc.Cause.Error()
	} else {
		r.Error = err.Error()
	}
	return r
}

// salvageRank is one rank's salvage outcome in JSON form.
type salvageRank struct {
	Rank          int    `json:"rank"`
	Truncated     bool   `json:"truncated"`
	Damage        string `json:"damage,omitempty"`
	SegmentsKept  int    `json:"segments_kept"`
	SegmentsTotal int    `json:"segments_total"`
	EventsKept    uint64 `json:"events_kept"`
	EventsTotal   uint64 `json:"events_total"`
	// FrontierClock is the rank's salvage cut; null when the rank was
	// intact end to end.
	FrontierClock *uint64 `json:"frontier_clock,omitempty"`
}

func cmdSalvage(args []string) int {
	fs := flag.NewFlagSet("salvage", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON")
	out := fs.String("o", "", "output directory for the salvaged record (default: salvage in place)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: cdcinspect salvage [-json] [-o <out-dir>] <record-dir>")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	dir := fs.Arg(0)
	var report *store.SalvageReport
	var err error
	if *out != "" {
		// Copy-out salvage is a dir-layout operation: it re-emits one record
		// file per rank. Other layouts salvage in place through their store.
		report, err = dirstore.SalvageTo(dir, *out)
	} else {
		var st cdc.Store
		if st, err = cdc.OpenStore(dir); err == nil {
			report, err = st.Salvage()
		}
		*out = dir
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "cdcinspect: salvage: %v\n", err)
		return 1
	}
	if report == nil {
		fmt.Printf("%s: already complete; nothing to salvage\n", dir)
		return 0
	}
	kept, total := report.Events()
	if *jsonOut {
		ranks := make([]salvageRank, 0, len(report.Ranks))
		for _, rs := range report.Ranks {
			sr := salvageRank{
				Rank:          rs.Rank,
				Truncated:     rs.Truncated,
				Damage:        rs.Damage,
				SegmentsKept:  rs.SegmentsKept,
				SegmentsTotal: rs.SegmentsTotal,
				EventsKept:    rs.EventsKept,
				EventsTotal:   rs.EventsTotal,
			}
			if rs.Frontier != math.MaxUint64 {
				fc := rs.Frontier
				sr.FrontierClock = &fc
			}
			ranks = append(ranks, sr)
		}
		emitJSON(struct {
			From        string        `json:"from"`
			To          string        `json:"to"`
			EventsKept  uint64        `json:"events_kept"`
			EventsTotal uint64        `json:"events_total"`
			Ranks       []salvageRank `json:"ranks"`
		}{dir, *out, kept, total, ranks})
		return 0
	}
	fmt.Printf("salvaged %s -> %s: %d of %d events kept\n", dir, *out, kept, total)
	for _, rs := range report.Ranks {
		state := "clean"
		if rs.Truncated {
			state = "truncated (" + rs.Damage + ")"
		}
		front := "intact"
		if rs.Frontier != math.MaxUint64 {
			front = fmt.Sprintf("clock %d", rs.Frontier)
		}
		fmt.Printf("  rank %d: %s; kept %d/%d segments, %d/%d events; frontier %s\n",
			rs.Rank, state, rs.SegmentsKept, rs.SegmentsTotal, rs.EventsKept, rs.EventsTotal, front)
	}
	return 0
}

// callsiteStats is one callsite's aggregate within a record file.
type callsiteStats struct {
	ID     uint64 `json:"id"`
	Name   string `json:"name,omitempty"`
	Chunks int    `json:"chunks"`
	Events uint64 `json:"events"`
}

// fileStats is one record file's aggregate summary.
type fileStats struct {
	File          string          `json:"file"`
	Bytes         int64           `json:"bytes"`
	Frames        uint64          `json:"frames"`
	Chunks        uint64          `json:"chunks"`
	Events        uint64          `json:"events"`
	Moves         uint64          `json:"moves"`
	Values        uint64          `json:"cdc_values"`
	FlushPoints   uint64          `json:"flush_points"`
	BytesPerEvent float64         `json:"bytes_per_event"`
	DecodeWorkers int             `json:"decode_workers"`
	DecodeMs      float64         `json:"decode_ms"`
	Callsites     []callsiteStats `json:"callsites"`
}

// chunkDump is one chunk's decoded tables, for the dump subcommand.
type chunkDump struct {
	Callsite   string       `json:"callsite"`
	Index      int          `json:"index"`
	Events     uint64       `json:"events"`
	Moves      []moveDump   `json:"moves,omitempty"`
	WithNext   int          `json:"with_next"`
	Unmatched  int          `json:"unmatched"`
	EpochLine  []epochEntry `json:"epoch_line,omitempty"`
	Ties       int          `json:"ties"`
	Senders    bool         `json:"senders"`
	Exceptions int          `json:"exceptions"`
}

type epochEntry struct {
	Rank  int32  `json:"rank"`
	Clock uint64 `json:"clock"`
}

// moveDump is one permutation-difference row (permdiff.Move with JSON tags).
type moveDump struct {
	ObservedIndex int64 `json:"observed_index"`
	Delay         int64 `json:"delay"`
}

// scanFile streams one record file, filling stats and (when dump is
// non-nil) per-chunk tables. workers > 0 decodes frames through the
// parallel pipeline; the reported decode time covers the whole scan either
// way, so the two modes compare directly.
func scanFile(path string, workers int, dump *[]chunkDump) (st fileStats, err error) {
	st = fileStats{File: path, DecodeWorkers: workers}
	f, err := os.Open(path)
	if err != nil {
		return st, err
	}
	defer f.Close()
	if fi, err := f.Stat(); err == nil {
		st.Bytes = fi.Size()
	}
	start := time.Now()
	defer func() { st.DecodeMs = float64(time.Since(start).Nanoseconds()) / 1e6 }()
	it, err := core.OpenRecordOptions(f, core.DecoderOptions{DecodeWorkers: workers})
	if err != nil {
		return st, err
	}
	defer it.Close()
	byCallsite := map[uint64]*callsiteStats{}
	var order []uint64
	lookup := func(cs uint64) *callsiteStats {
		if s, ok := byCallsite[cs]; ok {
			return s
		}
		s := &callsiteStats{ID: cs}
		byCallsite[cs] = s
		order = append(order, cs)
		return s
	}
	chunkIndex := map[uint64]int{}
	for {
		frame, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return st, err
		}
		if frame.Chunk == nil {
			if frame.CallsiteName != "" {
				lookup(frame.CallsiteID).Name = frame.CallsiteName
			}
			continue
		}
		c := frame.Chunk
		s := lookup(c.Callsite)
		s.Chunks++
		s.Events += c.NumMatched
		st.Chunks++
		st.Moves += uint64(len(c.Moves))
		st.Values += uint64(c.ValueCount())
		if dump != nil {
			name := s.Name
			if name == "" {
				name = fmt.Sprintf("%#x", c.Callsite)
			}
			d := chunkDump{
				Callsite:   name,
				Index:      chunkIndex[c.Callsite],
				Events:     c.NumMatched,
				WithNext:   len(c.WithNext),
				Unmatched:  len(c.Unmatched),
				Ties:       len(c.TiedClocks),
				Senders:    len(c.Senders) > 0,
				Exceptions: len(c.Exceptions),
			}
			for _, m := range c.Moves {
				d.Moves = append(d.Moves, moveDump{ObservedIndex: m.ObservedIndex, Delay: m.Delay})
			}
			for _, e := range c.EpochLine {
				d.EpochLine = append(d.EpochLine, epochEntry{Rank: e.Rank, Clock: e.Clock})
			}
			*dump = append(*dump, d)
			chunkIndex[c.Callsite]++
		}
	}
	st.Frames, st.Events, st.FlushPoints = it.Frames(), it.Events(), it.FlushPoints()
	if st.Events > 0 {
		st.BytesPerEvent = float64(st.Bytes) / float64(st.Events)
	}
	for _, cs := range order {
		st.Callsites = append(st.Callsites, *byCallsite[cs])
	}
	return st, nil
}

func printStats(st fileStats) {
	fmt.Printf("%s: %d bytes, %d callsites, %d chunks, %d receive events\n",
		st.File, st.Bytes, len(st.Callsites), st.Chunks, st.Events)
	fmt.Printf("  decoded in %.2f ms (%d decode workers)\n", st.DecodeMs, st.DecodeWorkers)
	if st.Events > 0 {
		fmt.Printf("  %.3f bytes/event, %.1f%% permuted, %d CDC values (vs %d uncompressed)\n",
			st.BytesPerEvent, 100*float64(st.Moves)/float64(st.Events),
			st.Values, 5*st.Events)
	}
	for _, s := range st.Callsites {
		name := s.Name
		if name == "" {
			name = fmt.Sprintf("%#x", s.ID)
		}
		fmt.Printf("  callsite %s: %d chunks, %d events\n", name, s.Chunks, s.Events)
	}
}

func cmdStats(args []string) int {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON")
	workers := fs.Int("decode-workers", 0, "decode frames on a worker pool (0 = serial)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: cdcinspect stats [-json] [-decode-workers N] <record-file>...")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() < 1 {
		fs.Usage()
		return 2
	}
	var all []fileStats
	for _, path := range fs.Args() {
		st, err := scanFile(path, *workers, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cdcinspect: %s: %v\n", path, err)
			return 1
		}
		if *jsonOut {
			all = append(all, st)
		} else {
			printStats(st)
		}
	}
	if *jsonOut {
		emitJSON(all)
	}
	return 0
}

func cmdDump(args []string) int {
	fs := flag.NewFlagSet("dump", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON")
	workers := fs.Int("decode-workers", 0, "decode frames on a worker pool (0 = serial)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: cdcinspect dump [-json] [-decode-workers N] <record-file>")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	var chunks []chunkDump
	st, err := scanFile(fs.Arg(0), *workers, &chunks)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cdcinspect: %s: %v\n", fs.Arg(0), err)
		return 1
	}
	if *jsonOut {
		emitJSON(struct {
			fileStats
			ChunkTables []chunkDump `json:"chunk_tables"`
		}{st, chunks})
		return 0
	}
	printStats(st)
	for _, d := range chunks {
		fmt.Printf("  %s chunk %d: n=%d moves=%d with_next=%d unmatched=%d epoch=%d ties=%d senders=%v exceptions=%d\n",
			d.Callsite, d.Index, d.Events, len(d.Moves), d.WithNext, d.Unmatched,
			len(d.EpochLine), d.Ties, d.Senders, d.Exceptions)
		for _, m := range d.Moves {
			fmt.Printf("    move: obs %d delay %+d\n", m.ObservedIndex, m.Delay)
		}
		for _, e := range d.EpochLine {
			fmt.Printf("    epoch: rank %d clock %d\n", e.Rank, e.Clock)
		}
	}
	return 0
}
