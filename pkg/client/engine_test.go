package client

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"fmore/internal/auction"
)

// engineBids generates a deterministic, ascending-NodeID bid set for one
// round, so a reference auctioneer can score the same slate.
func engineBids(round, bidders int) []auction.Bid {
	rng := rand.New(rand.NewSource(int64(4000 + round)))
	bids := make([]auction.Bid, bidders)
	for i := range bids {
		bids[i] = auction.Bid{
			NodeID:    i,
			Qualities: []float64{rng.Float64(), rng.Float64()},
			Payment:   0.05 + 0.2*rng.Float64(),
		}
	}
	return bids
}

// TestEngineMatchesPrivateAuctioneer drives transport rounds through the
// SDK's Engine against an exchange over HTTP: each outcome must be
// bit-identical to a private auctioneer's with the same rule and seed, and
// a round with no bids must fail.
func TestEngineMatchesPrivateAuctioneer(t *testing.T) {
	c, _ := fixture(t)
	ctx := context.Background()
	job, err := c.CreateJob(ctx, additiveSpec("engine", 2, 31))
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(ctx, c, job.ID)

	rule, err := auction.NewAdditive(0.6, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := auction.NewAuctioneer(auction.Config{Rule: rule, K: 2}, rand.New(rand.NewSource(31)))
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 2; round++ {
		bids := engineBids(round, 10)
		got, err := eng.RunRound(round, bids)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Run(bids)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round %d: engine outcome diverges from private auctioneer\n got: %+v\nwant: %+v", round, got, want)
		}
	}
	if _, err := eng.RunRound(3, nil); err == nil {
		t.Error("zero-bid engine round: want error")
	}
}
