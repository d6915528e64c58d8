// Package analytics turns the exchange's firehose into queryable rollups:
// per-job and per-node win rates, payment totals, round latencies and
// fixed-bucket bid-price histograms, maintained over a sliding window next
// to lifetime totals. The aggregator is an exchange.Sink — attach it with
// Exchange.Firehose().Attach — and NewHandler exposes its rollups as
// GET /v1/jobs/{id}/stats and GET /v1/nodes/{id}/stats in front of the
// exchange's own HTTP handler.
//
// The firehose delivers one record per closed round, and every figure is
// derived from it: bids and price buckets from the round's slate, wins and
// node payments from its winners, and the round counts, totals and
// latencies from its summary. So a bid is counted when its round closes —
// a bid in a round that never closes is not counted — and a node's
// last_bid_ms is the time that close was consumed.
//
// The window is a ring of epoch-stamped buckets reset lazily in place, so
// steady-state aggregation allocates nothing, just like the firehose's
// ring and pump. Ingest takes one mutex — contention-free in practice,
// because a single pump goroutine is the only writer and readers are
// scrape-rate HTTP requests.
package analytics

import (
	"slices"
	"sync"
	"time"

	"fmore/internal/exchange"
)

// Defaults for Options.
const (
	defaultWindow  = 10 * time.Minute
	defaultBuckets = 30
)

// defaultPriceBounds are the bid-price histogram's upper bounds. Auction
// payments in this codebase live on [0, ~1] in the paper's normalized
// units; the doubling tail absorbs custom cost scales.
var defaultPriceBounds = []float64{0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// Options configures an Aggregator.
type Options struct {
	// Window is the sliding rollup horizon (default 10m).
	Window time.Duration
	// Buckets subdivides the window; finer buckets expire data in smaller
	// steps at slightly more memory per job/node (default 30).
	Buckets int
	// PriceBounds overrides the bid-price histogram's upper bounds
	// (ascending; a final +Inf bucket is implicit).
	PriceBounds []float64
	// Now overrides the clock (tests).
	Now func() time.Time
}

// Rollup is one aggregate view — either windowed or lifetime — of a job's
// or node's auction activity. Node rollups leave the round fields zero
// (rounds are a job-level event).
type Rollup struct {
	// Rounds and RoundsFailed count completed round closes.
	Rounds       int64 `json:"rounds"`
	RoundsFailed int64 `json:"rounds_failed"`
	// Bids counts the bids of closed rounds; Wins counts selected ones.
	Bids int64 `json:"bids"`
	Wins int64 `json:"wins"`
	// WinRate is Wins/Bids (0 when no bids).
	WinRate float64 `json:"win_rate"`
	// TotalPayment sums granted payments (for a job: across its rounds;
	// for a node: what the node was paid).
	TotalPayment float64 `json:"total_payment"`
	// AggregatorProfit sums round profits (jobs only).
	AggregatorProfit float64 `json:"aggregator_profit"`
	// AvgRoundLatencyMS / MaxRoundLatencyMS summarize close latency
	// (jobs only).
	AvgRoundLatencyMS float64 `json:"avg_round_latency_ms"`
	MaxRoundLatencyMS float64 `json:"max_round_latency_ms"`
}

// PriceHistogram is a fixed-bucket bid-price distribution: Counts[i] is
// the number of closed-round bids with price <= Bounds[i], Counts[len(Bounds)]
// catches the rest. Bounds are parallel (not a map keyed by +Inf) so the
// histogram JSON-encodes cleanly.
type PriceHistogram struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
}

// JobStats is the payload of GET /v1/jobs/{id}/stats.
type JobStats struct {
	Job       string `json:"job"`
	WindowSec int64  `json:"window_sec"`
	// Window covers roughly the last WindowSec seconds; Lifetime covers
	// everything since the aggregator attached.
	Window   Rollup `json:"window"`
	Lifetime Rollup `json:"lifetime"`
	// PriceHistogram is the windowed distribution of closed-round bid prices.
	PriceHistogram PriceHistogram `json:"price_histogram"`
}

// NodeStats is the payload of GET /v1/nodes/{id}/stats.
type NodeStats struct {
	Node      int    `json:"node"`
	WindowSec int64  `json:"window_sec"`
	Window    Rollup `json:"window"`
	Lifetime  Rollup `json:"lifetime"`
	// PriceHistogram is the windowed distribution of the node's closed-round
	// bid prices.
	PriceHistogram PriceHistogram `json:"price_histogram"`
	// LastBidMS / LastWinMS are unix-millisecond times at which the
	// aggregator consumed the latest round close carrying a bid and a win
	// from the node (0 = never).
	LastBidMS int64 `json:"last_bid_ms"`
	LastWinMS int64 `json:"last_win_ms"`
}

// counters is the shared accumulator shape behind both bucket and
// lifetime totals.
type counters struct {
	rounds, failed int64
	bids, wins     int64
	payment        float64
	profit         float64
	latSumNs       int64
	latMaxNs       int64
	prices         []int64 // len(bounds)+1, nil for lifetime totals
}

func (c *counters) addTo(r *Rollup) {
	r.Rounds += c.rounds
	r.RoundsFailed += c.failed
	r.Bids += c.bids
	r.Wins += c.wins
	r.TotalPayment += c.payment
	r.AggregatorProfit += c.profit
}

// bucket is one window slice, valid only while its epoch is current (lazy
// in-place reset instead of a ticker goroutine or reallocation).
type bucket struct {
	epoch int64 // bucketDur index; 0 = never used (epochs start at 1)
	counters
}

// series is one entity's (job's or node's) rollup state.
type series struct {
	life    counters
	buckets []bucket
	lastBid time.Time
	lastWin time.Time
}

// Aggregator consumes the firehose and answers stats queries. It
// implements exchange.Sink; attach it via Exchange.Firehose().Attach.
type Aggregator struct {
	window    time.Duration
	bucketDur time.Duration
	nb        int
	bounds    []float64
	now       func() time.Time

	mu      sync.Mutex
	jobs    map[string]*series
	nodes   map[int]*series
	dropped uint64
}

// New builds an aggregator. Zero Options give a 10-minute window over 30
// buckets and the default price bounds.
func New(opts Options) *Aggregator {
	if opts.Window <= 0 {
		opts.Window = defaultWindow
	}
	if opts.Buckets <= 0 {
		opts.Buckets = defaultBuckets
	}
	if opts.PriceBounds == nil {
		opts.PriceBounds = defaultPriceBounds
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	bucketDur := opts.Window / time.Duration(opts.Buckets)
	if bucketDur <= 0 {
		bucketDur = time.Second
	}
	return &Aggregator{
		window:    opts.Window,
		bucketDur: bucketDur,
		nb:        opts.Buckets,
		bounds:    opts.PriceBounds,
		now:       opts.Now,
		jobs:      make(map[string]*series),
		nodes:     make(map[int]*series),
	}
}

// newSeries allocates one entity's state (once per entity lifetime; the
// steady state only mutates in place).
func (a *Aggregator) newSeries() *series {
	s := &series{buckets: make([]bucket, a.nb)}
	backing := make([]int64, a.nb*(len(a.bounds)+1))
	for i := range s.buckets {
		s.buckets[i].prices = backing[i*(len(a.bounds)+1) : (i+1)*(len(a.bounds)+1)]
	}
	return s
}

// at returns the entity's current write bucket, resetting it in place when
// its epoch expired.
func (a *Aggregator) at(s *series, epoch int64) *bucket {
	b := &s.buckets[epoch%int64(a.nb)]
	if b.epoch != epoch {
		prices := b.prices
		for i := range prices {
			prices[i] = 0
		}
		b.counters = counters{prices: prices}
		b.epoch = epoch
	}
	return b
}

func (a *Aggregator) jobSeries(id string) *series {
	s := a.jobs[id]
	if s == nil {
		s = a.newSeries()
		a.jobs[id] = s
	}
	return s
}

func (a *Aggregator) nodeSeries(id int) *series {
	s := a.nodes[id]
	if s == nil {
		s = a.newSeries()
		a.nodes[id] = s
	}
	return s
}

// priceBucket maps a bid price onto its histogram slot.
func (a *Aggregator) priceBucket(p float64) int {
	for i, bound := range a.bounds {
		if p <= bound {
			return i
		}
	}
	return len(a.bounds)
}

// ConsumeTap implements exchange.Sink. Each event is one closed round:
// its slate feeds the per-job and per-node bid counts and price buckets,
// its winners the wins and payments, and its totals the round rollups. One
// batch costs one mutex acquisition and in-place counter updates; the only
// allocations are the first-contact series of a new job or node.
func (a *Aggregator) ConsumeTap(events []exchange.TapEvent, dropped uint64) {
	now := a.now()
	epoch := now.UnixNano()/int64(a.bucketDur) + 1 // +1: epoch 0 means "never"
	a.mu.Lock()
	defer a.mu.Unlock()
	a.dropped += dropped
	for i := range events {
		ev := &events[i]
		js := a.jobSeries(ev.Job)
		jb := a.at(js, epoch)
		for _, b := range ev.Bids {
			price := a.priceBucket(b.Price)
			jb.prices[price]++
			ns := a.nodeSeries(b.Node)
			nb := a.at(ns, epoch)
			nb.bids++
			nb.prices[price]++
			ns.life.bids++
			ns.lastBid = now
		}
		for _, w := range ev.Winners {
			ns := a.nodeSeries(w.Node)
			nb := a.at(ns, epoch)
			nb.wins++
			nb.payment += w.Payment
			ns.life.wins++
			ns.life.payment += w.Payment
			ns.lastWin = now
		}
		bids, wins := int64(len(ev.Bids)), int64(len(ev.Winners))
		lat := ev.Latency.Nanoseconds()
		jb.bids += bids
		jb.wins += wins
		jb.rounds++
		jb.payment += ev.Payment
		jb.profit += ev.Profit
		jb.latSumNs += lat
		jb.latMaxNs = max(jb.latMaxNs, lat)
		js.life.bids += bids
		js.life.wins += wins
		js.life.rounds++
		js.life.payment += ev.Payment
		js.life.profit += ev.Profit
		js.life.latSumNs += lat
		js.life.latMaxNs = max(js.life.latMaxNs, lat)
		if ev.Failed {
			jb.failed++
			js.life.failed++
		}
	}
}

// Dropped returns the firehose rounds this aggregator was told it missed.
func (a *Aggregator) Dropped() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.dropped
}

// windowRollup folds the live buckets (epoch within the window) into a
// rollup plus the windowed price histogram.
func (a *Aggregator) windowRollup(s *series) (Rollup, PriceHistogram) {
	nowEpoch := a.now().UnixNano()/int64(a.bucketDur) + 1
	minEpoch := nowEpoch - int64(a.nb) + 1
	var r Rollup
	var latSum, latMax int64
	hist := PriceHistogram{
		Bounds: a.bounds,
		Counts: make([]int64, len(a.bounds)+1),
	}
	for i := range s.buckets {
		b := &s.buckets[i]
		if b.epoch < minEpoch || b.epoch > nowEpoch {
			continue
		}
		b.counters.addTo(&r)
		latSum += b.latSumNs
		if b.latMaxNs > latMax {
			latMax = b.latMaxNs
		}
		for k, c := range b.prices {
			hist.Counts[k] += c
		}
	}
	finishRollup(&r, latSum, latMax)
	return r, hist
}

// lifetimeRollup folds the lifetime totals.
func lifetimeRollup(s *series) Rollup {
	var r Rollup
	s.life.addTo(&r)
	finishRollup(&r, s.life.latSumNs, s.life.latMaxNs)
	return r
}

func finishRollup(r *Rollup, latSumNs, latMaxNs int64) {
	if r.Bids > 0 {
		r.WinRate = float64(r.Wins) / float64(r.Bids)
	}
	if r.Rounds > 0 {
		r.AvgRoundLatencyMS = float64(latSumNs) / float64(r.Rounds) / 1e6
	}
	r.MaxRoundLatencyMS = float64(latMaxNs) / 1e6
}

// JobStats returns the job's rollups; ok is false when the aggregator has
// never seen the job.
func (a *Aggregator) JobStats(id string) (JobStats, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	s, ok := a.jobs[id]
	if !ok {
		return JobStats{}, false
	}
	win, hist := a.windowRollup(s)
	return JobStats{
		Job:            id,
		WindowSec:      int64(a.window / time.Second),
		Window:         win,
		Lifetime:       lifetimeRollup(s),
		PriceHistogram: hist,
	}, true
}

// NodeStats returns the node's rollups; ok is false when the aggregator
// has never seen the node.
func (a *Aggregator) NodeStats(id int) (NodeStats, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	s, ok := a.nodes[id]
	if !ok {
		return NodeStats{}, false
	}
	win, hist := a.windowRollup(s)
	st := NodeStats{
		Node:           id,
		WindowSec:      int64(a.window / time.Second),
		Window:         win,
		Lifetime:       lifetimeRollup(s),
		PriceHistogram: hist,
	}
	if !s.lastBid.IsZero() {
		st.LastBidMS = s.lastBid.UnixMilli()
	}
	if !s.lastWin.IsZero() {
		st.LastWinMS = s.lastWin.UnixMilli()
	}
	return st, true
}

// NodeIDs lists every node the aggregator has seen (ascending).
func (a *Aggregator) NodeIDs() []int {
	a.mu.Lock()
	defer a.mu.Unlock()
	ids := make([]int, 0, len(a.nodes))
	for id := range a.nodes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}
