package analytics

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fmore/internal/auction"
	"fmore/internal/exchange"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// pinLatency forwards the firehose to the aggregator with every round's
// close latency replaced by a value derived from the round number, so the
// latency fields of the golden pages are deterministic. Everything else
// reaches the aggregator untouched.
type pinLatency struct{ next exchange.Sink }

func (s pinLatency) ConsumeTap(events []exchange.TapEvent, dropped uint64) {
	for i := range events {
		if events[i].Kind == exchange.TapRoundClosed {
			events[i].Latency = time.Duration(events[i].Round) * 1500 * time.Microsecond
		}
	}
	s.next.ConsumeTap(events, dropped)
}

// TestStatsGolden is the parity gate for the analytics pipeline: a seeded
// workload runs through a real exchange, the aggregator on its firehose and
// the stats handler, and the /v1/{jobs,nodes}/{id}/stats bodies must match
// testdata/stats.golden byte for byte.
//
// Two jobs share node 5, and every node bids a seeded subset of rounds at
// seeded prices spanning the histogram. The fake clock moves only at
// quiescent points — after a round's bids, its close and a firehose Drain —
// in steps that cross bucket boundaries (10s) and, over the run, the 60s
// window, so windowed and lifetime rollups diverge. Every round the
// workload opens is closed before the pages are read. (No failed round is
// included: SubmitBid validates qualities and payments, so no admitted bid
// can poison scoring.)
//
// Regenerate with: go test ./internal/analytics -run TestStatsGolden -update
func TestStatsGolden(t *testing.T) {
	clock := newFakeClock()
	ex := exchange.New(exchange.Options{})
	agg := New(Options{Window: time.Minute, Buckets: 6, Now: clock.now})
	detach := ex.Firehose().Attach(pinLatency{next: agg})
	srv := httptest.NewServer(NewHandler(ex, agg, exchange.NewHandler(ex)))
	t.Cleanup(func() {
		srv.Close()
		detach()
		ex.Close()
	})

	rule, err := auction.NewAdditive(0.6, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []struct {
		id    string
		k     int
		seed  int64
		nodes []int
	}{
		{"alpha", 2, 7, []int{1, 2, 3, 4, 5}},
		{"beta", 3, 11, []int{5, 6, 7, 8, 9}},
	}
	for _, j := range jobs {
		if _, err := ex.CreateJob(exchange.JobSpec{ID: j.id, Seed: j.seed, Auction: auction.Config{Rule: rule, K: j.k}}); err != nil {
			t.Fatal(err)
		}
	}

	rng := rand.New(rand.NewPCG(42, 2026))
	steps := []time.Duration{4 * time.Second, 7 * time.Second, 13 * time.Second, 9 * time.Second}
	for round := 1; round <= 8; round++ {
		for _, j := range jobs {
			for _, n := range j.nodes {
				// Node 1 stops bidding after round 2, so its window empties while
				// its lifetime totals stay.
				if (n == 1 && round > 2) || rng.IntN(5) == 0 {
					continue
				}
				bid := auction.Bid{
					NodeID:    n,
					Qualities: []float64{rng.Float64(), rng.Float64()},
					Payment:   0.005 + 3*rng.Float64()*rng.Float64(),
				}
				if _, err := ex.SubmitBid(j.id, bid); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := ex.CloseRound(j.id); err != nil {
				t.Fatalf("%s round %d: %v", j.id, round, err)
			}
		}
		drain(t, ex)
		clock.advance(steps[round%len(steps)])
	}

	var got bytes.Buffer
	page := func(path string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "GET %s %d\n%s", path, resp.StatusCode, body)
	}
	for _, j := range jobs {
		page("/v1/jobs/" + j.id + "/stats")
	}
	for n := 1; n <= 9; n++ {
		page(fmt.Sprintf("/v1/nodes/%d/stats", n))
	}

	golden := filepath.Join("testdata", "stats.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("stats pages differ from %s:\n--- got\n%s\n--- want\n%s", golden, got.Bytes(), want)
	}
}

func drain(t *testing.T, ex *exchange.Exchange) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ex.Firehose().Drain(ctx); err != nil {
		t.Fatal(err)
	}
}
