package main

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"

	"fmore/internal/auction"
	"fmore/pkg/client"
)

// expectedRound is the oracle's recomputation of one closed round.
type expectedRound struct {
	numBids int
	out     auction.Outcome
}

// digest hashes everything a round's outcome says: bid count, winners with
// their bids, every score and the totals. Served outcomes are kept as
// digests, so the oracle's memory does not grow with the rounds a run
// closes and heap_mb stays the program's own.
type digest uint64

type hasher struct{ b []byte }

func (h *hasher) int(v int)       { h.b = binary.LittleEndian.AppendUint64(h.b, uint64(v)) }
func (h *hasher) float(v float64) { h.int(int(math.Float64bits(v))) }
func (h *hasher) floats(v []float64) {
	h.int(len(v))
	for _, x := range v {
		h.float(x)
	}
}

func (h *hasher) sum() digest {
	f := fnv.New64a()
	f.Write(h.b) //nolint:errcheck // hash writes cannot fail
	return digest(f.Sum64())
}

// digestServed digests an outcome as the exchange served it. JSON
// round-trips float64 exactly, so equal outcomes digest equally.
func digestServed(o client.Outcome) digest {
	h := &hasher{}
	h.int(o.NumBids)
	h.int(len(o.Winners))
	for _, w := range o.Winners {
		h.int(w.NodeID)
		h.float(w.Payment)
		h.float(w.Score)
		h.float(w.BidPayment)
		h.floats(w.Qualities)
	}
	h.floats(o.Scores)
	h.float(o.TotalPayment)
	h.float(o.AggregatorProfit)
	if o.Error != "" {
		h.int(-1)
	}
	return h.sum()
}

// digestExpected digests the oracle's outcome field for field like
// digestServed.
func digestExpected(e expectedRound) digest {
	h := &hasher{}
	h.int(e.numBids)
	h.int(len(e.out.Winners))
	for _, w := range e.out.Winners {
		h.int(w.Bid.NodeID)
		h.float(w.Payment)
		h.float(w.Score)
		h.float(w.Bid.Payment)
		h.floats(w.Bid.Qualities)
	}
	h.floats(e.out.Scores)
	h.float(e.out.TotalPayment())
	h.float(e.out.AggregatorProfit)
	return h.sum()
}

// recompute replays a job's acknowledged bid sets through a fresh
// Auctioneer seeded like the job, rounds 1 to last in order, and returns
// the digest every closed round must have.
func recompute(seed int64, k, last int, bidSet func(round int) []auction.Bid) ([]digest, error) {
	r, err := rule.Build()
	if err != nil {
		return nil, err
	}
	a, err := auction.NewAuctioneer(auction.Config{Rule: r, K: k}, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	digests := make([]digest, last+1)
	for round := 1; round <= last; round++ {
		bids := bidSet(round)
		slices.SortFunc(bids, func(a, b auction.Bid) int { return cmp.Compare(a.NodeID, b.NodeID) })
		out, err := a.Run(bids)
		if err != nil {
			return nil, fmt.Errorf("round %d: oracle: %w", round, err)
		}
		digests[round] = digestExpected(expectedRound{numBids: len(bids), out: out})
	}
	return digests, nil
}

// verifyJob runs the oracle over every round the job closed and checks the
// close responses, every SSE round_closed payload, and the outcomes in the
// given retained /outcomes pages. Closed rounds must run 1, 2, 3, ...
// with none missing.
func verifyJob(js *jobState, pages [][]byte) (rounds int, err error) {
	js.mu.Lock()
	closes := slices.Clone(js.closes)
	byRound := make(map[int][]auction.Bid)
	for _, a := range js.acks {
		byRound[a.round] = append(byRound[a.round], js.table.auctionBid(a.idx))
	}
	js.mu.Unlock()
	slices.SortFunc(closes, func(a, b closeRec) int { return cmp.Compare(a.round, b.round) })
	for i, c := range closes {
		if c.round != i+1 {
			return 0, fmt.Errorf("job %s: closed rounds skip from %d to %d", js.def.id, i, c.round)
		}
	}
	want, err := recompute(js.seed, js.def.k, len(closes), func(r int) []auction.Bid { return byRound[r] })
	if err != nil {
		return 0, fmt.Errorf("job %s: %w", js.def.id, err)
	}
	check := func(src string, round int, got digest) error {
		if round < 1 || round >= len(want) {
			return fmt.Errorf("job %s: %s carries round %d, which no close returned", js.def.id, src, round)
		}
		if got != want[round] {
			return fmt.Errorf("job %s round %d: %s differs from the oracle", js.def.id, round, src)
		}
		return nil
	}
	for _, c := range closes {
		if err := check("close response", c.round, c.d); err != nil {
			return 0, err
		}
	}
	if js.watch != nil {
		for round, s := range js.watch.snapshot() {
			if err := check("SSE round_closed", round, s.d); err != nil {
				return 0, err
			}
		}
	}
	for _, page := range pages {
		var p struct {
			Outcomes []client.Outcome `json:"outcomes"`
		}
		if err := json.Unmarshal(page, &p); err != nil {
			return 0, fmt.Errorf("job %s: decoding outcomes page: %w", js.def.id, err)
		}
		for _, o := range p.Outcomes {
			if err := check("retained outcomes page", o.Round, digestServed(o)); err != nil {
				return 0, err
			}
		}
	}
	return len(closes), nil
}
