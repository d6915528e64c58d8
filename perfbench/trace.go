package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fmore/internal/exchange"
)

// spanHeader carries the SDK call's span ID to the handler wrapper, so the
// handler span names the call that caused it.
const spanHeader = "X-Perfbench-Span"

const (
	spanBid   = "bid"
	spanClose = "close"
	spanRead  = "read"
)

// span is one timed call at a layer boundary. IDs are unique within a
// tracer; parent is the span that caused this one (0 for none).
type span struct {
	id, parent uint64
	name       string
	start, dur time.Duration // start is relative to the tracer's epoch
}

// tracer keeps spans in memory; they are written out when the run ends.
// All timers live in the benchmark's own wrappers around the stack's
// public surfaces; nothing inside the program is instrumented.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span

	consumeNS     atomic.Int64 // time inside the aggregator's ConsumeTap
	consumeEvents atomic.Int64
	tapJobs       sync.Map // job ID → *roundLog: when the sink saw each round close
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) add(id, parent uint64, name string, start time.Time, dur time.Duration) {
	t.mu.Lock()
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, start: start.Sub(t.epoch), dur: dur})
	t.mu.Unlock()
}

// durations returns every span duration recorded under name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d []time.Duration
	for _, s := range t.spans {
		if s.name == name {
			d = append(d, s.dur)
		}
	}
	return d
}

// handler wraps the stack's http.Handler with one span per request, named
// by route class and parented to the SDK call that sent it.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		name := "http." + routeClass(r)
		if parent == 0 {
			name = "http.direct" // the benchmark's own checks, not SDK load
		}
		t0 := time.Now()
		next.ServeHTTP(w, r)
		t.add(t.ids.Add(1), parent, name, t0, time.Since(t0))
	})
}

func routeClass(r *http.Request) string {
	switch p := r.URL.Path; {
	case r.Method == http.MethodPost && strings.HasSuffix(p, "/bids"):
		return spanBid
	case r.Method == http.MethodPost && strings.HasSuffix(p, "/close"):
		return spanClose
	case r.Method == http.MethodGet && strings.HasSuffix(p, "/events"):
		return "events"
	case r.Method == http.MethodGet:
		return spanRead
	default:
		return "other"
	}
}

// spanTransport is the SDK's RoundTripper: it stamps each request with a
// fresh span ID and remembers it for the worker that made the call. Each
// transport serves one goroutine, so last needs no lock.
type spanTransport struct {
	base http.RoundTripper
	tr   *tracer
	last uint64
}

func (t *tracer) transport(base http.RoundTripper) *spanTransport {
	return &spanTransport{base: base, tr: t}
}

func (s *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := s.tr.ids.Add(1)
	s.last = id
	r := req.Clone(req.Context())
	r.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	return s.base.RoundTrip(r)
}

// timedSink wraps the aggregator on the firehose: it notes when each round
// close reaches the sink, then times the aggregator's ConsumeTap.
type timedSink struct {
	next exchange.Sink
	t    *tracer
}

func (t *tracer) sink(next exchange.Sink) exchange.Sink { return timedSink{next: next, t: t} }

func (s timedSink) ConsumeTap(events []exchange.TapEvent, dropped uint64) {
	seen := time.Now()
	for i := range events {
		if ev := &events[i]; ev.Kind == exchange.TapRoundClosed {
			s.t.tapLog(ev.Job).add(ev.Round, seenRound{at: seen})
		}
	}
	t0 := time.Now()
	s.next.ConsumeTap(events, dropped)
	s.t.consumeNS.Add(int64(time.Since(t0)))
	s.t.consumeEvents.Add(int64(len(events)))
}

func (t *tracer) tapLog(job string) *roundLog {
	if l, ok := t.tapJobs.Load(job); ok {
		return l.(*roundLog)
	}
	l, _ := t.tapJobs.LoadOrStore(job, newRoundLog(0))
	return l.(*roundLog)
}

// traceCall records one SDK call as a client span (ID = the header the
// transport stamped) and, for the replay, the op it issued.
func (r *runner) traceCall(w *worker, kind string, t0 time.Time, d time.Duration, o op) {
	if r.tr == nil {
		return
	}
	r.tr.add(w.rt.last, 0, "client."+kind, t0, d)
	if len(w.log) < maxLog {
		w.log = append(w.log, o)
	}
}

// maxLog caps the ops each worker records for the replay.
const maxLog = 1 << 18

// rttSamples pairs each SDK call with the handler span it caused and
// returns call minus handler: the generator and loopback residual.
func (t *tracer) rttSamples() []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	handler := make(map[uint64]time.Duration)
	for _, s := range t.spans {
		if s.parent != 0 && strings.HasPrefix(s.name, "http.") {
			handler[s.parent] = s.dur
		}
	}
	var out []time.Duration
	for _, s := range t.spans {
		if !strings.HasPrefix(s.name, "client.") {
			continue
		}
		if h, ok := handler[s.id]; ok {
			out = append(out, s.dur-h)
		}
	}
	return out
}

// write dumps the spans as tab-separated lines: id, parent, name, start
// and duration in nanoseconds.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, s.name, s.start, s.dur)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close() //nolint:errcheck // the flush error is the one to report
		return err
	}
	return f.Close()
}
