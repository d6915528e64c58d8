package main

import (
	"fmt"
	"math/rand"
	"time"

	"fmore/internal/auction"
	"fmore/internal/exchange"
	"fmore/pkg/client"
)

// rule is every job's public scoring rule: S(q, p) = 0.6·q₁ + 0.4·q₂ − p.
var rule = client.RuleSpec{Kind: "additive", Alpha: []float64{0.6, 0.4}}

// jobDef is one job a workload hosts.
type jobDef struct {
	id   string
	k    int
	keep int // retained outcomes; 0 keeps the exchange default
	pop  int // node population bidding into it
}

// workload is one traffic mix. Everything it sends is derived from the
// seed; the exchange sees only the generated requests. Why each exists is
// recorded with it in BENCHMARK.json.
type workload struct {
	name      string
	jobs      []jobDef
	admission bool
	// roundBids is the bids per round: the close trigger in bid-storm (acked
	// bids between closes), the slate size elsewhere.
	roundBids int
	// primary is the operation ops_per_s and the op_* metrics time: "bid",
	// "round" or "read".
	primary string
	// tail is the percentile op_tail_ms reports. Bid-storm's latencies have
	// two modes, ordinary bids and bids stalled behind a 2,048-bid close. Its
	// p99 falls on the boundary between them and moves with the share of
	// stalled bids; its p99.9 sits inside the stall mode and times the stall.
	tail float64
	// sse attaches one event stream per worker (round-churn) or one watcher
	// per job (bid-storm) for the durable-and-visible round latency.
	sse bool
}

var workloads = []*workload{
	{
		name:      "bid-storm",
		jobs:      []jobDef{{id: "storm", k: 8, pop: 65536}},
		admission: true,
		roundBids: 2048,
		primary:   "bid",
		tail:      0.999,
		sse:       true,
	},
	{
		name:      "round-churn",
		jobs:      []jobDef{{id: "churn-0", k: 2, keep: 16, pop: 1024}, {id: "churn-1", k: 2, keep: 16, pop: 1024}},
		roundBids: 4,
		primary:   "round",
		tail:      0.99,
		sse:       true,
	},
	{
		name:      "read-mix",
		jobs:      []jobDef{{id: "mix-0", k: 4, pop: 4096}, {id: "mix-1", k: 4, pop: 4096}, {id: "mix-2", k: 4, pop: 4096}, {id: "mix-3", k: 4, pop: 4096}},
		roundBids: 64,
		primary:   "read",
		tail:      0.99,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// jobSeed is the auction seed of job j: the exchange draws its tie-breaks
// from it and the oracle replays the same draws.
func jobSeed(seed int64, j int) int64 { return seed*1000 + int64(j) + 1 }

// bidTable is a job's generated bid sequence. Bid i goes to node
// nodes[i mod pop], a seeded permutation of the population, so any window
// of fewer than pop consecutive bids names distinct nodes: a round never
// sees a duplicate bidder no matter how the two workers interleave.
type bidTable struct {
	nodes []int
	q     [][]float64
	pay   []float64
}

func newBidTable(seed int64, job, pop int) *bidTable {
	rng := rand.New(rand.NewSource(seed*7919 + int64(job)))
	t := &bidTable{nodes: rng.Perm(pop), q: make([][]float64, pop), pay: make([]float64, pop)}
	for i := range t.nodes {
		t.nodes[i]++ // node IDs start at 1
		q := []float64{0.1 + 0.9*rng.Float64(), 0.1 + 0.9*rng.Float64()}
		t.q[i] = q
		// Payments track the offered quality with private noise, so scores
		// spread and winners change from round to round.
		t.pay[i] = 0.3*(0.6*q[0]+0.4*q[1]) + 0.2*rng.Float64()
	}
	return t
}

func (t *bidTable) bid(i int64) client.Bid {
	s := int(i % int64(len(t.nodes)))
	return client.Bid{NodeID: t.nodes[s], Qualities: t.q[s], Payment: t.pay[s]}
}

// node picks the population member that u in [0, 1) falls on.
func (t *bidTable) node(u float64) int { return t.nodes[int(u*float64(len(t.nodes)))] }

func (t *bidTable) auctionBid(i int64) auction.Bid {
	s := int(i % int64(len(t.nodes)))
	return auction.Bid{NodeID: t.nodes[s], Qualities: t.q[s], Payment: t.pay[s]}
}

// clientSpec and exchangeSpec are the same job in the SDK's and the
// exchange's vocabulary: manual rounds, first price, the shared rule.
func clientSpec(d jobDef, seed int64) client.JobSpec {
	return client.JobSpec{ID: d.id, Rule: rule, K: d.k, Seed: seed, KeepOutcomes: d.keep}
}

func exchangeSpec(d jobDef, seed int64) (exchange.JobSpec, error) {
	r, err := rule.Build()
	if err != nil {
		return exchange.JobSpec{}, err
	}
	return exchange.JobSpec{ID: d.id, Auction: auction.Config{Rule: r, K: d.k}, Seed: seed, KeepOutcomes: d.keep}, nil
}

// readKind is one read-mix operation.
type readKind uint8

const (
	readOutcome readKind = iota
	readOutcomes
	readJobStats
	readNodeStats
	readMetrics
	readProm
)

var readNames = [...]string{"outcome", "outcomes", "job_stats", "node_stats", "metrics", "prometheus"}

// readOp is one generated read: its kind, target job, and a uniform draw
// that picks the round (within retention) or the node when the read is
// issued. Warm-up has every node of the population bid, so any node has
// stats.
type readOp struct {
	kind readKind
	job  int
	u    float64
}

// readGen draws the read-mix: 40% Outcome, 20% Outcomes pages, 15%
// JobStats, 15% NodeStats, 5% Metrics, 5% Prometheus.
type readGen struct{ rng *rand.Rand }

func newReadGen(seed int64, stream int) *readGen {
	return &readGen{rng: rand.New(rand.NewSource(seed*104729 + int64(stream)))}
}

func (g *readGen) next(jobs int) readOp {
	p := g.rng.Float64()
	var k readKind
	switch {
	case p < 0.40:
		k = readOutcome
	case p < 0.60:
		k = readOutcomes
	case p < 0.75:
		k = readJobStats
	case p < 0.90:
		k = readNodeStats
	case p < 0.95:
		k = readMetrics
	default:
		k = readProm
	}
	return readOp{kind: k, job: g.rng.Intn(jobs), u: g.rng.Float64()}
}

// retainedRound maps u onto a closed round that stays retained while the
// read is in flight: the writer would have to close dozens of rounds on
// the same job for it to be evicted.
func retainedRound(latest int64, u float64) int {
	lo := max(int64(1), latest-64)
	return int(lo + int64(u*float64(latest-lo+1)))
}

const (
	outcomesPage = 16  // rounds per Outcomes page read
	probeReads   = 400 // per worker, when a workload issues no reads of its own
	waitTimeout  = 10 * time.Second
)
