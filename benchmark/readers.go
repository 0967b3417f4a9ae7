package main

import (
	"bytes"
	"fmt"

	"clue/internal/ip"
	"clue/internal/serve"
)

// readStats is one caller's tally. Each caller owns its own, so the hot
// loop touches no shared memory.
type readStats struct {
	calls    int64 // client calls made
	answers  int64 // addresses resolved
	verified int64 // addresses whose hop was compared with the oracle
	excused  int64 // of those, answers that differ from the base FIB's because the table churned
	failed   int64 // calls that errored or returned a wrong hop
	err      error // first failure
}

func (s *readStats) fail(err error) {
	s.failed++
	if s.err == nil {
		s.err = err
	}
}

func (s *readStats) add(o *readStats) {
	s.calls += o.calls
	s.answers += o.answers
	s.verified += o.verified
	s.excused += o.excused
	s.failed += o.failed
	if s.err == nil {
		s.err = o.err
	}
}

// readFn makes the caller's i-th call and returns how many addresses it
// resolved correctly (0 on a failed call).
type readFn func(i int) int

// singleReader is one Runtime.Dispatch per call, cycling through the
// pool from start; the hop is compared on every call.
func singleReader(rt *serve.Runtime, in *inputs, start int, st *readStats) readFn {
	n := len(in.pool)
	return func(i int) int {
		idx := (start + i) % n
		st.calls++
		res, err := rt.Dispatch(in.pool[idx])
		if err != nil {
			st.fail(fmt.Errorf("Dispatch(%s): %w", in.pool[idx], err))
			return 0
		}
		st.answers++
		st.verified++
		if !in.check(idx, res.Hop, st) {
			st.fail(fmt.Errorf("Dispatch(%s) = hop %d, oracle says %d", in.pool[idx], res.Hop, in.exp[idx]))
			return 0
		}
		return 1
	}
}

// batchReader is one Runtime.DispatchBatch of in.batch consecutive pool
// addresses per call; every hop of every call is compared.
func batchReader(rt *serve.Runtime, in *inputs, start int, st *readStats) readFn {
	nb := len(in.pool) / in.batch
	out := make([]serve.Result, 0, in.batch)
	return func(i int) int {
		off := ((start + i) % nb) * in.batch
		st.calls++
		var err error
		out, err = rt.DispatchBatch(in.pool[off:off+in.batch], out)
		if err != nil {
			st.fail(fmt.Errorf("DispatchBatch: %w", err))
			return 0
		}
		st.answers += int64(len(out))
		st.verified += int64(len(out))
		for j := range out {
			if !in.check(off+j, out[j].Hop, st) {
				st.fail(fmt.Errorf("DispatchBatch: %s = hop %d, oracle says %d", in.pool[off+j], out[j].Hop, in.exp[off+j]))
				return 0
			}
		}
		return len(out)
	}
}

// httpDecodeEvery: one HTTP reply in this many is fully decoded and
// compared hop for hop; the rest are checked for status and count only.
const httpDecodeEvery = 32

// httpBodies pre-encodes every batch of the pool as a request body, so
// the measured client cost is the transport's, not json.Marshal's.
func httpBodies(in *inputs) [][]byte {
	bodies := make([][]byte, len(in.pool)/in.batch)
	for b := range bodies {
		bodies[b] = batchBody(in.pool[b*in.batch : (b+1)*in.batch])
	}
	return bodies
}

// httpBatchReader is one POST /lookup/batch per call.
func httpBatchReader(hc *httpClient, in *inputs, bodies [][]byte, start int, st *readStats) readFn {
	var buf bytes.Buffer
	hops := make([]ip.NextHop, 0, in.batch)
	return func(i int) int {
		b := (start + i) % len(bodies)
		decode := i%httpDecodeEvery == 0
		st.calls++
		got, err := hc.lookupBatch(bodies[b], in.batch, decode, &buf, hops)
		if err != nil {
			st.fail(err)
			return 0
		}
		st.answers += int64(in.batch)
		if decode {
			st.verified += int64(len(got))
			for j, hop := range got {
				if !in.check(b*in.batch+j, hop, st) {
					st.fail(fmt.Errorf("POST /lookup/batch: %s = hop %d, oracle says %d",
						in.pool[b*in.batch+j], hop, in.exp[b*in.batch+j]))
					return 0
				}
			}
		}
		return in.batch
	}
}
