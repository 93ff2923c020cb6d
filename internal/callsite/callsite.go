// Package callsite derives stable matching-function identifiers from the
// program counter of the MF call (paper §4.4: "we analyze the call stacks
// of the function calls, and separately manage the record tables for the
// different MF call instances").
//
// The identifier is an FNV-1a hash of the caller's file:line, so it is
// stable between the record run and the replay run of the same program —
// unlike raw program-counter values, which can move between builds. The
// program counter only keys a process-local cache: file:line is resolved
// once per pc, and a cache hit costs one stack walk of a single frame and
// no allocation.
package callsite

import (
	"fmt"
	"hash/fnv"
	"maps"
	"runtime"
	"sync"
	"sync/atomic"
)

type entry struct {
	id   uint64
	name string
}

// cache maps a caller pc to its entry. Readers load the current map
// without locking; a miss copies it with the new entry added under mu.
// A program has few MF callsites, so the copies stay small and rare.
var (
	cache atomic.Pointer[map[uintptr]entry]
	mu    sync.Mutex
)

// ID returns the identifier and human-readable name (file:line) of the
// caller skip frames above this function. skip follows runtime.Caller:
// skip=1 identifies ID's caller, skip=2 that function's caller, and so on.
func ID(skip int) (uint64, string) {
	// runtime.Caller(skip) is runtime.Callers(skip+1) plus symbolization;
	// taking the pc alone defers the symbolization to a cache miss.
	var pcs [1]uintptr
	if runtime.Callers(skip+1, pcs[:]) < 1 {
		return 0, "unknown"
	}
	pc := pcs[0]
	if m := cache.Load(); m != nil {
		if ent, hit := (*m)[pc]; hit {
			return ent.id, ent.name
		}
	}
	// A fresh slice: handing pcs to CallersFrames would move it to the
	// heap on the hit path too.
	frame, _ := runtime.CallersFrames([]uintptr{pc}).Next()
	if frame.PC == 0 {
		return 0, "unknown"
	}
	ent := resolve(frame.File, frame.Line)
	mu.Lock()
	next := map[uintptr]entry{pc: ent}
	if m := cache.Load(); m != nil {
		maps.Copy(next, *m)
	}
	cache.Store(&next)
	mu.Unlock()
	return ent.id, ent.name
}

// resolve builds the entry for a file:line.
func resolve(file string, line int) entry {
	// Keep the last two path components: unambiguous enough for humans,
	// and short enough that name frames stay negligible in the record.
	slashes := 0
	for i := len(file) - 1; i >= 0; i-- {
		if file[i] == '/' {
			slashes++
			if slashes == 2 {
				file = file[i+1:]
				break
			}
		}
	}
	name := fmt.Sprintf("%s:%d", file, line)
	h := fnv.New64a()
	h.Write([]byte(name))
	ent := entry{id: h.Sum64(), name: name}
	if ent.id == 0 {
		ent.id = 1 // reserve 0 for "MF identification disabled"
	}
	return ent
}
