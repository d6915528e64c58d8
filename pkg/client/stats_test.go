package client

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fmore/internal/analytics"
	"fmore/internal/exchange"
	"fmore/internal/promtext"
)

// statsFixture is the observability variant of fixture: the exchange runs
// with an analytics aggregator on its firehose and the stats handler in
// front, the deployment cmd/fmore-exchange serves.
func statsFixture(t *testing.T) (*Client, *exchange.Exchange) {
	t.Helper()
	ex := exchange.New(exchange.Options{})
	agg := analytics.New(analytics.Options{})
	detach := ex.Firehose().Attach(agg)
	srv := httptest.NewServer(analytics.NewHandler(ex, agg, exchange.NewHandler(ex)))
	t.Cleanup(func() {
		srv.Close()
		detach()
		ex.Close()
	})
	c, err := New(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	return c, ex
}

// TestClientStatsRoundTrip drives a round through the SDK and reads it
// back through every observability surface: JobStats, NodeStats, the
// extended Metrics snapshot, and the Prometheus exposition.
func TestClientStatsRoundTrip(t *testing.T) {
	c, ex := statsFixture(t)
	ctx := context.Background()

	if _, err := c.CreateJob(ctx, additiveSpec("obs", 2, 11)); err != nil {
		t.Fatal(err)
	}
	const bidders = 5
	for n := 0; n < bidders; n++ {
		bid := Bid{NodeID: n, Qualities: []float64{0.4, 0.6}, Payment: 0.1 + 0.02*float64(n)}
		if _, err := c.SubmitBid(ctx, "obs", bid); err != nil {
			t.Fatal(err)
		}
	}
	out, err := c.CloseRound(ctx, "obs")
	if err != nil {
		t.Fatal(err)
	}
	drainCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := ex.Firehose().Drain(drainCtx); err != nil {
		t.Fatal(err)
	}

	js, err := c.JobStats(ctx, "obs")
	if err != nil {
		t.Fatal(err)
	}
	if js.Job != "obs" || js.Lifetime.Rounds != 1 || js.Lifetime.Bids != bidders ||
		js.Lifetime.Wins != int64(len(out.Winners)) {
		t.Fatalf("JobStats = %+v", js)
	}
	if js.Window != js.Lifetime {
		t.Fatalf("fresh job window %+v != lifetime %+v", js.Window, js.Lifetime)
	}

	winner := out.Winners[0].NodeID
	ns, err := c.NodeStats(ctx, winner)
	if err != nil {
		t.Fatal(err)
	}
	if ns.Node != winner || ns.Lifetime.Wins != 1 || ns.Lifetime.Bids != 1 || ns.LastWinMS == 0 {
		t.Fatalf("winner NodeStats = %+v", ns)
	}
	wantPay, _ := out.Won(winner)
	if ns.Lifetime.TotalPayment != wantPay {
		t.Fatalf("winner TotalPayment = %v, want %v", ns.Lifetime.TotalPayment, wantPay)
	}

	if _, err := c.JobStats(ctx, "ghost"); ErrorCode(err) != CodeUnknownJob {
		t.Fatalf("ghost JobStats error = %v, want %s", err, CodeUnknownJob)
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.FirehoseEvents <= 0 || m.FirehoseDropped != 0 {
		t.Fatalf("snapshot firehose counters = (%d, %d)", m.FirehoseEvents, m.FirehoseDropped)
	}
	if m.WalSegmentCount != 0 || m.WalBytes != 0 {
		t.Fatalf("in-memory WAL gauges = (%d, %d), want (0, 0)", m.WalSegmentCount, m.WalBytes)
	}

	text, err := c.PrometheusMetrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	page, err := promtext.Parse(strings.NewReader(text))
	if err != nil {
		t.Fatalf("exposition from SDK does not parse: %v", err)
	}
	rounds, err := page.Value("fmore_exchange_rounds_total")
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 1 {
		t.Fatalf("scraped rounds_total = %v, want 1", rounds)
	}
}
