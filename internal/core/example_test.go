package core_test

import (
	"bytes"
	"fmt"

	"cdcreplay/internal/core"
	"cdcreplay/internal/tables"
)

// A recorder feeds observed events into the Encoder; a RecordIter drained
// with DrainRecord recovers the chunked tables. Here four in-reference-order receives compress to a
// chunk with no permutation moves at all (§3.3).
func ExampleEncoder() {
	var buf bytes.Buffer
	enc, _ := core.NewEncoder(&buf, core.EncoderOptions{})
	enc.RegisterCallsite(1, "app.go:42")
	for i, src := range []int32{0, 1, 0, 2} {
		enc.Observe(1, tables.Matched(src, uint64(i+1), false))
	}
	enc.Close()

	it, _ := core.OpenRecord(bytes.NewReader(buf.Bytes()))
	rec, _ := core.DrainRecord(it)
	chunk := rec.Chunks[1][0]
	fmt.Println("callsite:", rec.Names[1])
	fmt.Println("events:", chunk.NumMatched, "moves:", len(chunk.Moves))
	// Output:
	// callsite: app.go:42
	// events: 4 moves: 0
}
