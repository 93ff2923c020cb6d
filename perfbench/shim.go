package main

import (
	"runtime"
	"time"

	"cdcreplay/internal/simmpi"
	"cdcreplay/internal/tables"
)

// Matching-function methods, for the callsite trampolines and the site
// keys of captured rows.
const (
	mTest = iota
	mTestany
	mTestsome
	mTestall
	mWait
	mWaitany
	mWaitsome
	mWaitall
	numMF
)

// row is one record-table row as the recorder observes it: captured at the
// application boundary so the encode layer can be re-run offline on the
// same rows.
type row struct {
	site uint64
	ev   tables.Event
}

// shim is the benchmark's simmpi.MPI wrapper around the endpoint a cdc.App
// receives. It always hashes the delivered (source, tag, payload) sequence
// and counts calls, sends and delivered messages — the correctness gate
// compares the hashes of a record and its replay. With timed set it also
// samples every call's latency, and with capture set it keeps the rows
// the recorder below will observe.
//
// Tool layers derive the matching-function callsite from their caller's
// file:line, so a plain wrapper would fold every application callsite of
// a method into one. The shim keeps them apart: each distinct application
// callsite of a method gets its own trampoline line (slots 0..3; further
// sites share the last), assigned in first-call order, which a replay
// reproduces because the application issues the same calls.
type shim struct {
	next    simmpi.MPI
	timed   bool
	capture bool

	hash   uint64
	calls  uint64
	sends  uint64
	events uint64
	mpiNs  int64
	callNs []int64
	rows   []row

	sites map[uintptr]int
	used  [numMF]int
	pc    [1]uintptr
}

var _ simmpi.MPI = (*shim)(nil)

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func newShim(next simmpi.MPI, timed, capture bool) *shim {
	return &shim{next: next, timed: timed, capture: capture, hash: fnvOffset, sites: make(map[uintptr]int)}
}

func (s *shim) begin() time.Time {
	if s.timed {
		return now()
	}
	return time.Time{}
}

func (s *shim) end(t0 time.Time) {
	s.calls++
	if s.timed {
		d := now().Sub(t0).Nanoseconds()
		s.mpiNs += d
		s.callNs = append(s.callNs, d)
	}
}

// slot returns the trampoline slot of the application callsite calling
// the shim method that called slot.
func (s *shim) slot(method int) int {
	runtime.Callers(3, s.pc[:])
	k, ok := s.sites[s.pc[0]]
	if !ok {
		k = s.used[method]
		if k < 3 {
			s.used[method]++
		}
		s.sites[s.pc[0]] = k
	}
	return k
}

func (s *shim) mix(v uint64) {
	for i := 0; i < 8; i++ {
		s.hash ^= v & 0xff
		s.hash *= fnvPrime
		v >>= 8
	}
}

// deliver folds completed receives into the hash and, when capturing,
// into the observed rows; an empty set is a failed test.
func (s *shim) deliver(method, slot int, sts ...simmpi.Status) {
	for _, st := range sts {
		s.events++
		s.mix(uint64(int64(st.Source)))
		s.mix(uint64(int64(st.Tag)))
		for _, b := range st.Data {
			s.hash ^= uint64(b)
			s.hash *= fnvPrime
		}
	}
	if !s.capture {
		return
	}
	site := uint64(method)<<8 | uint64(slot)
	if len(sts) == 0 {
		s.rows = append(s.rows, row{site, tables.Unmatched(1)})
		return
	}
	for i, st := range sts {
		s.rows = append(s.rows, row{site, tables.MatchedTagged(int32(st.Source), int32(st.Tag), st.Clock, i+1 < len(sts))})
	}
}

func (s *shim) Rank() int { return s.next.Rank() }
func (s *shim) Size() int { return s.next.Size() }

func (s *shim) Send(dst, tag int, data []byte) error {
	t0 := s.begin()
	err := s.next.Send(dst, tag, data)
	s.end(t0)
	s.sends++
	return err
}

func (s *shim) Irecv(src, tag int) (*simmpi.Request, error) {
	t0 := s.begin()
	req, err := s.next.Irecv(src, tag)
	s.end(t0)
	return req, err
}

func (s *shim) Test(req *simmpi.Request) (ok bool, st simmpi.Status, err error) {
	k := s.slot(mTest)
	t0 := s.begin()
	switch k {
	case 0:
		ok, st, err = s.next.Test(req)
	case 1:
		ok, st, err = s.next.Test(req)
	case 2:
		ok, st, err = s.next.Test(req)
	default:
		ok, st, err = s.next.Test(req)
	}
	s.end(t0)
	if err == nil {
		s.deliverOne(mTest, k, ok, st)
	}
	return ok, st, err
}

func (s *shim) Testany(reqs []*simmpi.Request) (i int, ok bool, st simmpi.Status, err error) {
	k := s.slot(mTestany)
	t0 := s.begin()
	switch k {
	case 0:
		i, ok, st, err = s.next.Testany(reqs)
	case 1:
		i, ok, st, err = s.next.Testany(reqs)
	case 2:
		i, ok, st, err = s.next.Testany(reqs)
	default:
		i, ok, st, err = s.next.Testany(reqs)
	}
	s.end(t0)
	if err == nil {
		s.deliverOne(mTestany, k, ok, st)
	}
	return i, ok, st, err
}

func (s *shim) deliverOne(method, slot int, ok bool, st simmpi.Status) {
	if ok {
		s.deliver(method, slot, st)
	} else {
		s.deliver(method, slot)
	}
}

func (s *shim) Testsome(reqs []*simmpi.Request) (idxs []int, sts []simmpi.Status, err error) {
	k := s.slot(mTestsome)
	t0 := s.begin()
	switch k {
	case 0:
		idxs, sts, err = s.next.Testsome(reqs)
	case 1:
		idxs, sts, err = s.next.Testsome(reqs)
	case 2:
		idxs, sts, err = s.next.Testsome(reqs)
	default:
		idxs, sts, err = s.next.Testsome(reqs)
	}
	s.end(t0)
	if err == nil {
		s.deliver(mTestsome, k, sts...)
	}
	return idxs, sts, err
}

func (s *shim) Testall(reqs []*simmpi.Request) (ok bool, sts []simmpi.Status, err error) {
	k := s.slot(mTestall)
	t0 := s.begin()
	switch k {
	case 0:
		ok, sts, err = s.next.Testall(reqs)
	case 1:
		ok, sts, err = s.next.Testall(reqs)
	case 2:
		ok, sts, err = s.next.Testall(reqs)
	default:
		ok, sts, err = s.next.Testall(reqs)
	}
	s.end(t0)
	if err == nil {
		if !ok {
			sts = nil
		}
		s.deliver(mTestall, k, sts...)
	}
	return ok, sts, err
}

func (s *shim) Wait(req *simmpi.Request) (st simmpi.Status, err error) {
	k := s.slot(mWait)
	t0 := s.begin()
	switch k {
	case 0:
		st, err = s.next.Wait(req)
	case 1:
		st, err = s.next.Wait(req)
	case 2:
		st, err = s.next.Wait(req)
	default:
		st, err = s.next.Wait(req)
	}
	s.end(t0)
	if err == nil {
		s.deliver(mWait, k, st)
	}
	return st, err
}

func (s *shim) Waitany(reqs []*simmpi.Request) (i int, st simmpi.Status, err error) {
	k := s.slot(mWaitany)
	t0 := s.begin()
	switch k {
	case 0:
		i, st, err = s.next.Waitany(reqs)
	case 1:
		i, st, err = s.next.Waitany(reqs)
	case 2:
		i, st, err = s.next.Waitany(reqs)
	default:
		i, st, err = s.next.Waitany(reqs)
	}
	s.end(t0)
	if err == nil {
		s.deliver(mWaitany, k, st)
	}
	return i, st, err
}

func (s *shim) Waitsome(reqs []*simmpi.Request) (idxs []int, sts []simmpi.Status, err error) {
	k := s.slot(mWaitsome)
	t0 := s.begin()
	switch k {
	case 0:
		idxs, sts, err = s.next.Waitsome(reqs)
	case 1:
		idxs, sts, err = s.next.Waitsome(reqs)
	case 2:
		idxs, sts, err = s.next.Waitsome(reqs)
	default:
		idxs, sts, err = s.next.Waitsome(reqs)
	}
	s.end(t0)
	if err == nil {
		s.deliver(mWaitsome, k, sts...)
	}
	return idxs, sts, err
}

func (s *shim) Waitall(reqs []*simmpi.Request) (sts []simmpi.Status, err error) {
	k := s.slot(mWaitall)
	t0 := s.begin()
	switch k {
	case 0:
		sts, err = s.next.Waitall(reqs)
	case 1:
		sts, err = s.next.Waitall(reqs)
	case 2:
		sts, err = s.next.Waitall(reqs)
	default:
		sts, err = s.next.Waitall(reqs)
	}
	s.end(t0)
	if err == nil {
		s.deliver(mWaitall, k, sts...)
	}
	return sts, err
}

func (s *shim) Barrier() error {
	t0 := s.begin()
	err := s.next.Barrier()
	s.end(t0)
	return err
}

func (s *shim) Allreduce(v float64, op simmpi.ReduceOp) (float64, error) {
	t0 := s.begin()
	r, err := s.next.Allreduce(v, op)
	s.end(t0)
	return r, err
}

func (s *shim) Reduce(v float64, op simmpi.ReduceOp, root int) (float64, error) {
	t0 := s.begin()
	r, err := s.next.Reduce(v, op, root)
	s.end(t0)
	return r, err
}

func (s *shim) Bcast(data []byte, root int) ([]byte, error) {
	t0 := s.begin()
	r, err := s.next.Bcast(data, root)
	s.end(t0)
	return r, err
}

func (s *shim) Gather(v float64, root int) ([]float64, error) {
	t0 := s.begin()
	r, err := s.next.Gather(v, root)
	s.end(t0)
	return r, err
}

func (s *shim) Allgather(v float64) ([]float64, error) {
	t0 := s.begin()
	r, err := s.next.Allgather(v)
	s.end(t0)
	return r, err
}
