package main

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"fmore/internal/admission"
	"fmore/internal/analytics"
	"fmore/internal/auction"
	"fmore/internal/exchange"
)

// opKind is one recorded SDK operation.
type opKind uint8

const (
	opBid opKind = iota
	opClose
	opRead
)

// op is one recorded operation: enough to issue it again in-process.
type op struct {
	kind opKind
	job  int
	idx  int64 // bid index
	read readOp
}

// replayJob is one job of the replay exchange.
type replayJob struct {
	def    jobDef
	seed   int64
	table  *bidTable
	j      *exchange.Job
	sub    *exchange.Subscription
	subLog *roundLog
	done   chan struct{}

	mu         sync.Mutex
	acks       []ack
	closes     map[int]closeRec
	walBytes   []int64 // WAL growth across each close + Sync
	lastClosed int64
}

// replayResult holds what the per-layer metrics need from the replay.
type replayResult struct {
	tr          *tracer
	subLag      []time.Duration
	tapLag      []time.Duration
	walBytes    []int64
	scoreNS     time.Duration // auction.Score over every replayed slate
	scoredBids  int
	allocsBid   float64
	allocsRound float64
}

// replay issues the workers' recorded ops again, in-process, against the
// layers' public entry points of an identically prepared exchange, with
// the same two-worker concurrency: warm-up ops first and untimed, then
// the timed slice until it ends or budget runs out. Workloads whose
// recorded slice has no reads get a fixed read probe, so every read entry
// point is timed on every workload.
//
// Bid admission is timed at admission.Controller.AdmitBid on a controller
// of the production shape whose ceiling an in-process replay cannot reach;
// the replay exchange gets the same kind of controller where the workload
// runs admission, so Exchange.SubmitBid includes the admit it would make.
func (r *runner) replay(dir string, budget time.Duration) (*replayResult, error) {
	opts := exchangeOptions(r.wl)
	if r.wl.admission {
		opts.Admission = unreachableAdmission()
	}
	ex, err := exchange.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir) //nolint:errcheck // scratch
	tr := newTracer()
	agg := analytics.New(analytics.Options{})
	detach := ex.Firehose().Attach(tr.sink(agg))
	h := analytics.NewHandler(ex, agg, exchange.NewHandler(ex))
	rp := &replayer{r: r, ex: ex, agg: agg, h: h, tr: tr, adm: unreachableAdmission()}
	defer func() {
		for _, rj := range rp.jobs {
			if rj.sub != nil {
				rj.j.Unsubscribe(rj.sub)
				<-rj.done
			}
		}
		detach()
		ex.Close() //nolint:errcheck // scratch exchange; its WAL is deleted
	}()
	for i, d := range r.wl.jobs {
		spec, err := exchangeSpec(d, jobSeed(r.seed, i))
		if err != nil {
			return nil, err
		}
		j, err := ex.CreateJob(spec)
		if err != nil {
			return nil, err
		}
		rj := &replayJob{def: d, seed: spec.Seed, table: newBidTable(r.seed, i, d.pop), j: j,
			subLog: newRoundLog(0), done: make(chan struct{}),
			closes: make(map[int]closeRec)}
		_, _, rj.sub = j.Subscribe(0)
		go func() {
			defer close(rj.done)
			for ev := range rj.sub.C {
				if ev.Type == exchange.EventRoundClosed {
					rj.subLog.add(ev.Round, seenRound{at: time.Now()})
				}
			}
		}()
		rp.jobs = append(rp.jobs, rj)
	}

	w0, w1 := r.workers[0], r.workers[1]
	if r.wl.name == "read-mix" {
		if err := rp.run(nil, w0.log[:w0.warm]); err != nil {
			return nil, err
		}
		if err := rp.run(nil, w1.log[:w1.warm]); err != nil {
			return nil, err
		}
	} else if err := rp.run(nil, w0.log[:w0.warm], w1.log[:w1.warm]); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(budget)
	if err := rp.run(&deadline, w0.log[w0.warm:], w1.log[w1.warm:]); err != nil {
		return nil, err
	}
	if len(tr.durations("job.Outcome")) == 0 {
		g0, g1 := newReadGen(r.seed, 10), newReadGen(r.seed, 11)
		probe := func(g *readGen) []op {
			ops := make([]op, probeReads)
			for i := range ops {
				ops[i] = op{kind: opRead, read: g.next(len(rp.jobs))}
			}
			return ops
		}
		if err := rp.run(nil, probe(g0), probe(g1)); err != nil {
			return nil, err
		}
	}
	res := &replayResult{tr: tr}
	if err := rp.checkAuction(res); err != nil {
		return nil, err
	}
	if err := rp.countAllocs(res); err != nil {
		return nil, err
	}
	for _, rj := range rp.jobs {
		rj.mu.Lock()
		tap := tr.tapLog(rj.def.id).snapshot()
		sub := rj.subLog.snapshot()
		for round, c := range rj.closes {
			if s, ok := sub[round]; ok {
				res.subLag = append(res.subLag, s.at.Sub(c.sent))
			}
			if s, ok := tap[round]; ok {
				res.tapLag = append(res.tapLag, s.at.Sub(c.sent))
			}
		}
		res.walBytes = append(res.walBytes, rj.walBytes...)
		rj.mu.Unlock()
	}
	return res, nil
}

// unreachableAdmission is the production admission shape (global ceiling
// plus in-flight gate) with a ceiling no replay reaches, so every admit
// takes the full bucket path and none sheds.
func unreachableAdmission() *admission.Controller {
	return admission.NewController(admission.Config{GlobalRate: 1e9, GlobalBurst: 1 << 30, MaxInflight: 64})
}

type replayer struct {
	r    *runner
	ex   *exchange.Exchange
	agg  *analytics.Aggregator
	h    http.Handler
	tr   *tracer
	adm  *admission.Controller
	jobs []*replayJob
}

// run replays each op list on its own goroutine and waits for all.
func (rp *replayer) run(deadline *time.Time, lists ...[]op) error {
	var wg sync.WaitGroup
	errs := make([]error, len(lists))
	for i, ops := range lists {
		wg.Add(1)
		go func() {
			defer wg.Done()
			nb, jb := rp.adm.NewNodeBucket(), rp.adm.NewJobBucket()
			for _, o := range ops {
				if deadline != nil && time.Now().After(*deadline) {
					return
				}
				if err := rp.do(o, nb, jb); err != nil {
					errs[i] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
	}
	return nil
}

func (rp *replayer) timed(name string, f func()) {
	t0 := time.Now()
	f()
	rp.tr.add(rp.tr.ids.Add(1), 0, name, t0, time.Since(t0))
}

func (rp *replayer) do(o op, nb, jb *admission.Bucket) error {
	switch o.kind {
	case opBid:
		rj := rp.jobs[o.job]
		b := rj.table.auctionBid(o.idx)
		b.Qualities = slices.Clone(b.Qualities) // the exchange owns what it is given
		var ok bool
		rp.timed("admission.AdmitBid", func() { ok, _, _ = rp.adm.AdmitBid(nb, jb) })
		if !ok {
			return fmt.Errorf("replay admission shed a bid")
		}
		var round int
		var err error
		rp.timed("exchange.SubmitBid", func() { round, err = rp.ex.SubmitBid(rj.def.id, b) })
		if err != nil {
			return err
		}
		rj.mu.Lock()
		rj.acks = append(rj.acks, ack{o.idx, round})
		rj.mu.Unlock()
	case opClose:
		return rp.close(rp.jobs[o.job])
	case opRead:
		rp.read(o.read)
	}
	return nil
}

func (rp *replayer) close(rj *replayJob) error {
	before := rp.ex.Metrics().WalBytes
	sent := time.Now()
	ro, err := rp.ex.CloseRound(rj.def.id)
	if errors.Is(err, exchange.ErrBelowQuorum) {
		// The replay interleaves the two workers' ops differently from the
		// load it recorded, so a recorded close can find its round empty.
		return nil
	}
	if err != nil {
		return err
	}
	rp.tr.add(rp.tr.ids.Add(1), 0, "exchange.CloseRound", sent, time.Since(sent))
	rp.timed("exchange.Sync", func() { err = rp.ex.Sync() })
	if err != nil {
		return err
	}
	grown := rp.ex.Metrics().WalBytes - before
	if _, err := rj.subLog.wait(ro.Round, waitTimeout); err != nil {
		return err
	}
	rj.mu.Lock()
	rj.closes[ro.Round] = closeRec{round: ro.Round, sent: sent, d: digestExpected(expectedRound{numBids: ro.NumBids, out: ro.Outcome})}
	rj.lastClosed = max(rj.lastClosed, int64(ro.Round))
	if grown > 0 { // a compaction in between shrinks the log
		rj.walBytes = append(rj.walBytes, grown)
	}
	rj.mu.Unlock()
	return nil
}

func (rp *replayer) read(o readOp) {
	rj := rp.jobs[o.job]
	rj.mu.Lock()
	latest := rj.lastClosed
	rj.mu.Unlock()
	switch o.kind {
	case readOutcome:
		if latest > 0 {
			rp.timed("job.Outcome", func() { _, _ = rj.j.Outcome(retainedRound(latest, o.u)) })
		}
	case readOutcomes:
		if latest > 0 {
			rp.timed("job.OutcomesAfter", func() { rj.j.OutcomesAfter(retainedRound(latest, o.u)-1, outcomesPage) })
		}
	case readJobStats:
		rp.timed("analytics.JobStats", func() { rp.agg.JobStats(rj.def.id) })
	case readNodeStats:
		id := rj.table.node(o.u)
		rp.timed("analytics.NodeStats", func() { rp.agg.NodeStats(id) })
	case readMetrics:
		rp.timed("exchange.Metrics", func() { rp.ex.Metrics() })
	case readProm:
		req := httptest.NewRequest(http.MethodGet, "/v1/metrics/prometheus", nil)
		rp.timed("handler.Prometheus", func() { rp.h.ServeHTTP(httptest.NewRecorder(), req) })
	}
}

// checkAuction re-runs every replayed round through a fresh seeded
// Auctioneer, timing rule scoring and auction.Auctioneer.RunScored, and
// checks each result against what Exchange.CloseRound returned.
func (rp *replayer) checkAuction(res *replayResult) error {
	ru, err := rule.Build()
	if err != nil {
		return err
	}
	for _, rj := range rp.jobs {
		a, err := auction.NewAuctioneer(auction.Config{Rule: ru, K: rj.def.k}, rand.New(rand.NewSource(rj.seed)))
		if err != nil {
			return err
		}
		byRound := make(map[int][]auction.Bid)
		for _, ak := range rj.acks {
			byRound[ak.round] = append(byRound[ak.round], rj.table.auctionBid(ak.idx))
		}
		for i, round := range sortedRounds(rj.closes) {
			if round != i+1 {
				return fmt.Errorf("replay: job %s closed rounds skip to %d", rj.def.id, round)
			}
			bids := byRound[round]
			slices.SortFunc(bids, func(a, b auction.Bid) int { return cmp.Compare(a.NodeID, b.NodeID) })
			scores := make([]float64, len(bids))
			t0 := time.Now()
			for k, b := range bids {
				if scores[k], err = auction.Score(ru, b.Qualities, b.Payment); err != nil {
					return err
				}
			}
			res.scoreNS += time.Since(t0)
			res.scoredBids += len(bids)
			var out auction.Outcome
			rp.timed("auction.RunScored", func() { out, err = a.RunScored(bids, scores) })
			if err != nil {
				return err
			}
			if digestExpected(expectedRound{numBids: len(bids), out: out}) != rj.closes[round].d {
				return fmt.Errorf("replay: job %s round %d differs from the oracle", rj.def.id, round)
			}
		}
	}
	return nil
}

// countAllocs submits and closes rounds of the workload's own shape on one
// goroutine and counts heap allocations per bid and per round close.
func (rp *replayer) countAllocs(res *replayResult) error {
	rj := rp.jobs[0]
	rounds := max(1, 4096/rp.r.wl.roundBids)
	var ms runtime.MemStats
	var bidAllocs, closeAllocs uint64
	// Close whatever the replay left open, so the counted rounds start
	// empty and cannot collide with a bidder already in the round.
	if rj.j.PendingBids() > 0 {
		if _, err := rp.ex.CloseRound(rj.def.id); err != nil {
			return fmt.Errorf("alloc count: %w", err)
		}
	}
	var next int64
	for range rounds {
		bids := make([]auction.Bid, rp.r.wl.roundBids)
		for k := range bids {
			bids[k] = rj.table.auctionBid(next)
			bids[k].Qualities = slices.Clone(bids[k].Qualities)
			next++
		}
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		for _, b := range bids {
			if _, err := rp.ex.SubmitBid(rj.def.id, b); err != nil {
				return fmt.Errorf("alloc count: %w", err)
			}
		}
		runtime.ReadMemStats(&ms)
		m1 := ms.Mallocs
		if _, err := rp.ex.CloseRound(rj.def.id); err != nil {
			return fmt.Errorf("alloc count: %w", err)
		}
		runtime.ReadMemStats(&ms)
		bidAllocs += m1 - m0
		closeAllocs += ms.Mallocs - m1
	}
	res.allocsBid = float64(bidAllocs) / float64(rounds*rp.r.wl.roundBids)
	res.allocsRound = float64(closeAllocs) / float64(rounds)
	return nil
}

// sortedRounds lists the keys of a round-indexed map in order.
func sortedRounds[V any](m map[int]V) []int {
	rs := make([]int, 0, len(m))
	for r := range m {
		rs = append(rs, r)
	}
	sort.Ints(rs)
	return rs
}
