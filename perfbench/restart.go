package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"fmore/internal/exchange"
)

// recoverCycles is how many close/re-open cycles a run makes; recover_s
// is their median.
const recoverCycles = 11

// restartCheck closes the exchange and re-opens its data dir recoverCycles
// times, timing Close plus Open. After every re-open each job's retained
// /outcomes pages must be byte-identical to the pages served before; after
// the last, one continuation round per job must close and agree with the
// oracle. It returns the recovery times and the retained pages.
func (r *runner) restartCheck() ([]time.Duration, map[string][][]byte, error) {
	r.stopStreams()
	r.ctx, r.cancel = context.WithCancel(context.Background())
	// Recovery replays the last snapshot plus the log behind it. Where the
	// size trigger last fired depends on how far a run got, so compacting
	// first makes every run recover the same thing: its live state.
	if err := r.st.ex.Compact(); err != nil {
		return nil, nil, fmt.Errorf("restart check: compact: %w", err)
	}
	var times []time.Duration
	pages := make(map[string][][]byte)
	for _, js := range r.jobs {
		p, err := r.st.outcomePages(js.def.id)
		if err != nil {
			return nil, nil, fmt.Errorf("restart check: %w", err)
		}
		pages[js.def.id] = p
	}
	for c := 0; c < recoverCycles; c++ {
		r.st.stopServing()
		r.st.detach()
		r.st.detach = nil
		runtime.GC() // every cycle starts from the same heap, not the last one's garbage
		t0 := time.Now()
		if err := r.st.ex.Close(); err != nil {
			return nil, nil, fmt.Errorf("restart check: close: %w", err)
		}
		ex, err := exchange.Open(r.dir, exchangeOptions(r.wl))
		times = append(times, time.Since(t0))
		if err != nil {
			return nil, nil, fmt.Errorf("restart check: re-open: %w", err)
		}
		if r.st, err = serveStack(ex, nil); err != nil {
			return nil, nil, err
		}
		for _, js := range r.jobs {
			after, err := r.st.outcomePages(js.def.id)
			if err != nil {
				return nil, nil, fmt.Errorf("restart check: %w", err)
			}
			if !pagesEqual(pages[js.def.id], after) {
				return nil, nil, fmt.Errorf("restart check: job %s: retained /outcomes pages changed across restart", js.def.id)
			}
		}
	}
	if err := r.connect(); err != nil {
		return nil, nil, err
	}
	// Continuation: one more round per job, bid and closed through the SDK
	// on the recovered exchange. The oracle then covers it too, which
	// checks that recovery restored the job's draw sequence.
	p := newPhase(64)
	w := r.workers[0]
	for _, js := range r.jobs {
		for range js.def.k + 2 {
			if !r.bid(w, js, js.next.Add(1)-1, p) {
				_, first := r.failures()
				return nil, nil, fmt.Errorf("restart check: continuation bid on %s: %v", js.def.id, first)
			}
		}
		t0 := time.Now()
		out, err := w.c.CloseRound(r.ctx, js.def.id)
		if err != nil {
			return nil, nil, fmt.Errorf("restart check: continuation close on %s: %w", js.def.id, err)
		}
		js.noteClose(out, t0)
	}
	return times, pages, nil
}

func pagesEqual(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}
