package main

import (
	"math/rand"
	"testing"

	"fmore/internal/auction"
	"fmore/pkg/client"
)

// A served outcome digests equal to the oracle's exactly when every field
// the oracle checks agrees.
func TestDigestMatchesServedForm(t *testing.T) {
	r, err := rule.Build()
	if err != nil {
		t.Fatal(err)
	}
	a, err := auction.NewAuctioneer(auction.Config{Rule: r, K: 2}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	tbl := newBidTable(1, 0, 16)
	bids := make([]auction.Bid, 5)
	for i := range bids {
		bids[i] = tbl.auctionBid(int64(i))
	}
	out, err := a.Run(bids)
	if err != nil {
		t.Fatal(err)
	}
	want := digestExpected(expectedRound{numBids: len(bids), out: out})
	served := func() client.Outcome { // the handler's outcome view
		o := client.Outcome{Round: 1, NumBids: len(bids), Scores: out.Scores,
			TotalPayment: out.TotalPayment(), AggregatorProfit: out.AggregatorProfit}
		for _, w := range out.Winners {
			o.Winners = append(o.Winners, client.Winner{NodeID: w.Bid.NodeID, Score: w.Score, Payment: w.Payment,
				BidPayment: w.Bid.Payment, Qualities: w.Bid.Qualities})
		}
		return o
	}
	if got := digestServed(served()); got != want {
		t.Fatalf("served digest %x, oracle %x", got, want)
	}
	for name, mutate := range map[string]func(*client.Outcome){
		"payment":  func(o *client.Outcome) { o.Winners[0].Payment += 1e-12 },
		"winner":   func(o *client.Outcome) { o.Winners[0].NodeID++ },
		"score":    func(o *client.Outcome) { o.Scores = append([]float64{o.Scores[0] + 1}, o.Scores[1:]...) },
		"num bids": func(o *client.Outcome) { o.NumBids++ },
		"failed":   func(o *client.Outcome) { o.Error = "boom" },
	} {
		o := served()
		mutate(&o)
		if digestServed(o) == want {
			t.Errorf("a changed %s still matches the oracle", name)
		}
	}
}
