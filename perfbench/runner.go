package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"fmore/pkg/client"
)

// ack is one accepted bid: its index in the job's generated sequence and
// the round the exchange said it entered.
type ack struct {
	idx   int64
	round int
}

// jobState is the benchmark's view of one hosted job: what it sent, what
// the exchange acknowledged, and what the exchange published.
type jobState struct {
	index int // position in the workload's job list
	def   jobDef
	seed  int64
	table *bidTable
	next  atomic.Int64 // next bid index

	mu         sync.Mutex
	acks       []ack
	closes     []closeRec   // in the order the responses came back
	lastClosed atomic.Int64 // written under mu, read without it
	watch      *watcher     // SSE, nil when the workload runs none
}

// closeRec is one close the exchange answered.
type closeRec struct {
	round int
	sent  time.Time
	d     digest
}

func (js *jobState) addAck(idx int64, round int) {
	js.mu.Lock()
	js.acks = append(js.acks, ack{idx, round})
	js.mu.Unlock()
}

func (js *jobState) noteClose(out client.Outcome, sent time.Time) {
	js.mu.Lock()
	defer js.mu.Unlock()
	js.closes = append(js.closes, closeRec{round: out.Round, sent: sent, d: digestServed(out)})
	// Both bid-storm workers close the one job; under mu a late response
	// cannot move lastClosed back.
	if int64(out.Round) > js.lastClosed.Load() {
		js.lastClosed.Store(int64(out.Round))
	}
}

// worker is one closed-loop request stream: its own SDK client on its own
// keep-alive connection, with retries off so a failed call counts as
// failed.
type worker struct {
	id    int
	c     *client.Client
	rt    *spanTransport // traced runs only
	reads *readGen
	log   []op // traced runs: the ops it issued, for the replay
	warm  int  // ops in log issued during warm-up
}

// phase is one stretch of load: until its deadline (timed) or its stop
// condition (warm-up), with the latency series it records into.
type phase struct {
	deadline time.Time
	until    func() bool
	bids     *series
	closes   *series
	rounds   *series // close sent → outcome durable and visible
	reads    *series
	readOnly bool // every worker issues read-mix reads
}

func (p *phase) over() bool {
	if !p.deadline.IsZero() {
		return !time.Now().Before(p.deadline)
	}
	return p.until()
}

func newPhase(capacity int) *phase {
	return &phase{bids: newSeries(capacity), closes: newSeries(capacity / 8), rounds: newSeries(capacity / 8), reads: newSeries(capacity)}
}

// runner drives one workload against one stack.
type runner struct {
	wl      *workload
	seed    int64
	tr      *tracer // nil untraced
	dir     string
	st      *stack
	jobs    []*jobState
	workers [2]*worker
	ctx     context.Context
	cancel  context.CancelFunc
	acked   atomic.Int64 // bid-storm's close trigger
	// capacity is the expected operation count of the timed phase; the
	// oracle's bookkeeping is preallocated from it so that its growth does
	// not show in heap_mb.
	capacity int

	errMu sync.Mutex
	errs  []string // first failures, for the report
	nErrs int
}

func (r *runner) noteErr(what string, err error) {
	r.errMu.Lock()
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf("%s: %v", what, err))
	}
	r.nErrs++
	r.errMu.Unlock()
}

// failures returns the failure count and the first few failures.
func (r *runner) failures() (int, []string) {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return r.nErrs, append([]string(nil), r.errs...)
}

// newClient returns an SDK client on a transport of its own (one
// keep-alive connection), with retries off.
func (r *runner) newClient() (*client.Client, *spanTransport, error) {
	base := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	var rt http.RoundTripper = base
	var st *spanTransport
	if r.tr != nil {
		st = r.tr.transport(base)
		rt = st
	}
	c, err := client.New(r.st.url, client.WithRetries(0), client.WithHTTPClient(&http.Client{Transport: rt}))
	return c, st, err
}

// connect (re)creates the worker clients against the current stack.
func (r *runner) connect() error {
	for i := range r.workers {
		c, rt, err := r.newClient()
		if err != nil {
			return err
		}
		w := r.workers[i]
		if w == nil {
			w = &worker{id: i, reads: newReadGen(r.seed, i)}
			r.workers[i] = w
		}
		w.c, w.rt = c, rt
	}
	return nil
}

// setUp opens a fresh stack in dir and brings it to the first timed
// operation: parity guard, job creation, stream attach and warm-up.
// capacity sizes the run's preallocated bookkeeping.
func setUp(wl *workload, seed int64, dir string, tr *tracer, capacity int) (*runner, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st, err := openStack(dir, wl, tr)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &runner{wl: wl, seed: seed, tr: tr, dir: dir, st: st, ctx: ctx, cancel: cancel, capacity: capacity}
	if err := r.prepare(); err != nil {
		r.shutdown()
		return nil, err
	}
	return r, nil
}

func (r *runner) prepare() error {
	if err := r.connect(); err != nil {
		return err
	}
	acks := r.capacity/len(r.wl.jobs) + 2*r.wl.jobs[0].pop
	rounds := acks/r.wl.roundBids + 64
	for j, d := range r.wl.jobs {
		js := &jobState{index: j, def: d, seed: jobSeed(r.seed, j), table: newBidTable(r.seed, j, d.pop),
			acks: make([]ack, 0, acks), closes: make([]closeRec, 0, rounds)}
		if _, err := r.workers[0].c.CreateJob(r.ctx, clientSpec(d, js.seed)); err != nil {
			return fmt.Errorf("create job %s: %w", d.id, err)
		}
		r.jobs = append(r.jobs, js)
	}
	if err := r.st.checkParity(r.jobs[0].def.id); err != nil {
		return err
	}
	// Event streams: bid-storm follows its job with one watcher and each
	// round-churn worker holds its own job's stream. A traced read-mix
	// attaches one per job so SSE lag is measured there too.
	if r.wl.sse || r.tr != nil {
		for _, js := range r.jobs {
			c, _, err := r.newClient()
			if err != nil {
				return err
			}
			if js.watch, err = startWatcher(r.ctx, c, js.def.id, rounds); err != nil {
				return fmt.Errorf("watch %s: %w", js.def.id, err)
			}
		}
	}
	return r.warmUp()
}

// warmUp runs a fixed amount of the workload's own traffic so caches fill,
// the outcome history exists for reads, and lazy set-up is done.
func (r *runner) warmUp() error {
	p := newPhase(1 << 12)
	minClosed := func() int64 {
		m := r.jobs[0].lastClosed.Load()
		for _, js := range r.jobs[1:] {
			m = min(m, js.lastClosed.Load())
		}
		return m
	}
	// Warm-up reaches the steady state the timed phase measures: every
	// node of the population has bid once (registry, admission buckets and
	// analytics series exist), the idempotency cache and the firehose ring
	// have wrapped, and read-mix's outcome histories are at their retention
	// limit, so eviction runs as it will in the timed phase.
	switch r.wl.name {
	case "bid-storm":
		p.until = func() bool { return r.acked.Load() >= int64(r.wl.jobs[0].pop) && minClosed() >= 1 }
		r.runWorkers(p, 0, 1)
	case "round-churn":
		rounds := int64(r.wl.jobs[0].pop / r.wl.roundBids)
		p.until = func() bool { return minClosed() >= rounds }
		r.runWorkers(p, 0, 1)
	case "read-mix":
		p.until = func() bool { return minClosed() >= 128 }
		r.runWorkers(p, 0)
		p.until = func() bool { return p.reads.len() >= 64 }
		r.runWorkers(p, 1)
	}
	for _, w := range r.workers {
		w.warm = len(w.log)
	}
	if n, first := r.failures(); n > 0 {
		return fmt.Errorf("warm-up: %d failed operations, first: %v", n, first)
	}
	return nil
}

// runWorkers runs the given workers through one phase and returns when all
// have stopped, with the time the last one stopped.
func (r *runner) runWorkers(p *phase, ids ...int) time.Time {
	var wg sync.WaitGroup
	ends := make([]time.Time, len(ids))
	for k, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.work(r.workers[id], p)
			ends[k] = time.Now()
		}()
	}
	wg.Wait()
	last := ends[0]
	for _, t := range ends[1:] {
		if t.After(last) {
			last = t
		}
	}
	return last
}

func (r *runner) work(w *worker, p *phase) {
	if p.readOnly {
		for !p.over() {
			r.read(w, w.reads.next(len(r.jobs)), p)
		}
		return
	}
	switch r.wl.name {
	case "bid-storm":
		js := r.jobs[0]
		for !p.over() {
			if r.bid(w, js, js.next.Add(1)-1, p) && r.acked.Add(1)%int64(r.wl.roundBids) == 0 {
				r.close(w, js, p)
			}
		}
	case "round-churn":
		js := r.jobs[w.id]
		for !p.over() {
			for range r.wl.roundBids {
				r.bid(w, js, js.next.Add(1)-1, p)
			}
			r.close(w, js, p)
		}
	case "read-mix":
		if w.id == 0 {
			for n := 0; !p.over(); n++ {
				js := r.jobs[n%len(r.jobs)]
				for range r.wl.roundBids {
					r.bid(w, js, js.next.Add(1)-1, p)
				}
				r.close(w, js, p)
			}
			return
		}
		for !p.over() {
			r.read(w, w.reads.next(len(r.jobs)), p)
		}
	}
}

func (r *runner) bid(w *worker, js *jobState, i int64, p *phase) bool {
	t0 := time.Now()
	round, err := w.c.SubmitBid(r.ctx, js.def.id, js.table.bid(i))
	d := time.Since(t0)
	p.bids.record(d, err)
	r.traceCall(w, spanBid, t0, d, op{kind: opBid, job: js.index, idx: i})
	if err != nil {
		r.noteErr("bid", err)
		return false
	}
	js.addAck(i, round)
	return true
}

// close closes the job's round through the SDK. Where the workload runs
// event streams, the round completes when its outcome is both durable
// (Exchange.Sync returned) and visible (round_closed arrived on the SSE
// stream), whichever comes later.
func (r *runner) close(w *worker, js *jobState, p *phase) {
	t0 := time.Now()
	out, err := w.c.CloseRound(r.ctx, js.def.id)
	ret := time.Now()
	p.closes.record(ret.Sub(t0), err)
	r.traceCall(w, spanClose, t0, ret.Sub(t0), op{kind: opClose, job: js.index})
	if err != nil {
		r.noteErr("close", err)
		if r.wl.sse {
			p.rounds.record(0, err)
		}
		return
	}
	js.noteClose(out, t0)
	if !r.wl.sse {
		return
	}
	serr := r.st.ex.Sync()
	synced := time.Now()
	seen, werr := js.watch.wait(out.Round, waitTimeout)
	end := synced
	if seen.After(end) {
		end = seen
	}
	if err := errors.Join(serr, werr); err != nil {
		r.noteErr("round", err)
		p.rounds.record(0, err)
		return
	}
	p.rounds.record(end.Sub(t0), nil)
}

func (r *runner) read(w *worker, o readOp, p *phase) {
	js := r.jobs[o.job]
	id := js.def.id
	t0 := time.Now()
	var err error
	switch o.kind {
	case readOutcome:
		_, err = w.c.Outcome(r.ctx, id, retainedRound(js.lastClosed.Load(), o.u))
	case readOutcomes:
		_, _, err = w.c.Outcomes(r.ctx, id, retainedRound(js.lastClosed.Load(), o.u)-1, outcomesPage)
	case readJobStats:
		_, err = w.c.JobStats(r.ctx, id)
	case readNodeStats:
		_, err = w.c.NodeStats(r.ctx, js.table.node(o.u))
	case readMetrics:
		_, err = w.c.Metrics(r.ctx)
	case readProm:
		_, err = w.c.PrometheusMetrics(r.ctx)
	}
	d := time.Since(t0)
	p.reads.record(d, err)
	r.traceCall(w, spanRead, t0, d, op{kind: opRead, read: o})
	if err != nil {
		r.noteErr("read "+readNames[o.kind], err)
	}
}

// closePending closes every round that still holds acknowledged bids, so
// the oracle and the restart check see no bid in limbo. Untimed.
func (r *runner) closePending() error {
	for _, js := range r.jobs {
		j, ok := r.st.ex.Job(js.def.id)
		if !ok {
			return fmt.Errorf("job %s vanished", js.def.id)
		}
		if j.PendingBids() == 0 {
			continue
		}
		t0 := time.Now()
		out, err := r.workers[0].c.CloseRound(r.ctx, js.def.id)
		if err != nil {
			return fmt.Errorf("final close of %s: %w", js.def.id, err)
		}
		js.noteClose(out, t0)
	}
	return nil
}

// stopStreams ends the event streams and waits for their goroutines.
func (r *runner) stopStreams() {
	r.cancel()
	for _, js := range r.jobs {
		if js.watch != nil {
			<-js.watch.done
		}
	}
}

// shutdown stops every goroutine the runner started and closes the stack.
func (r *runner) shutdown() error {
	r.stopStreams()
	return r.st.close()
}

// dataDir names the k-th fresh data directory of a run.
func dataDir(work string, k int) string { return filepath.Join(work, fmt.Sprintf("data-%d", k)) }
