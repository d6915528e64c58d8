package main

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"fmore/pkg/client"
)

func TestNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{
		{100, 0.5, 50}, {100, 0.99, 99}, {100, 1, 100}, {101, 0.5, 51},
		{10, 0.5, 5}, {10, 0.01, 1}, {10, 0, 1}, {3, 0.99, 3}, {1000, 0.99, 990},
	} {
		if got := nearestRank(c.n, c.q); got != c.want {
			t.Errorf("nearestRank(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
}

// The highest reported percentile keeps at least minBeyond samples above
// it; below that it is the plain nearest rank.
func TestReportRankKeepsTenBeyond(t *testing.T) {
	for n := 0; n <= minBeyond; n++ {
		if _, ok := reportRank(n, 0.5); ok {
			t.Fatalf("reportRank(%d) reported a percentile from %d samples", n, n)
		}
	}
	for n := minBeyond + 1; n <= 3000; n++ {
		for _, q := range []float64{0.5, 0.9, 0.99} {
			r, ok := reportRank(n, q)
			if !ok || r < 1 || n-r < minBeyond {
				t.Fatalf("reportRank(%d, %v) = %d, %v: fewer than %d samples beyond", n, q, r, ok, minBeyond)
			}
			if nr := nearestRank(n, q); n-nr >= minBeyond && r != nr {
				t.Fatalf("reportRank(%d, %v) = %d, want the nearest rank %d", n, q, r, nr)
			}
		}
	}
}

func TestQuantileReportsEffectivePercentile(t *testing.T) {
	s := newSeries(100)
	for i := 100; i >= 1; i-- { // recorded out of order
		s.record(time.Duration(i)*time.Millisecond, nil)
	}
	sum := s.summary()
	if ms, eff, n, ok := sum.quantile(0.5); !ok || ms != 50 || eff != 0.5 || n != 100 {
		t.Errorf("p50 = %v ms at %v of %d (ok %v), want 50 ms at 0.5 of 100", ms, eff, n, ok)
	}
	// 100 samples cannot support a p99 with ten beyond it: rank 90 stands in.
	if ms, eff, _, _ := sum.quantile(0.99); ms != 90 || eff != 0.9 {
		t.Errorf("p99 of 100 samples = %v ms at %v, want 90 ms at 0.9", ms, eff)
	}
	big := newSeries(2000)
	for i := 1; i <= 2000; i++ {
		big.record(time.Duration(i)*time.Microsecond, nil)
	}
	if ms, eff, _, _ := big.summary().quantile(0.99); ms != 1.98 || eff != 0.99 {
		t.Errorf("p99 of 2000 samples = %v ms at %v, want 1.98 ms at 0.99", ms, eff)
	}
}

// A 429, a 5xx and a transport error each count as a failed operation, and
// a failed operation misses every latency limit.
func TestFailureAccounting(t *testing.T) {
	status := http.StatusTooManyRequests
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		w.Write([]byte(`{"code":"overloaded","message":"shed","retry_after_ms":5}`)) //nolint:errcheck // test server
	}))
	c, err := client.New(srv.URL, client.WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	bid := client.Bid{NodeID: 1, Qualities: []float64{0.5, 0.5}, Payment: 0.1}
	s := newSeries(16)
	for i := 0; i < 12; i++ {
		s.record(time.Millisecond, nil)
	}
	var errs []error
	for _, st := range []int{http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusInternalServerError} {
		status = st
		_, err := c.SubmitBid(context.Background(), "j", bid)
		errs = append(errs, err)
	}
	srv.Close()
	_, err = c.SubmitBid(context.Background(), "j", bid) // connection refused
	errs = append(errs, err)
	for i, err := range errs {
		if err == nil {
			t.Fatalf("call %d succeeded against a refusing server", i)
		}
		s.record(time.Microsecond, err) // fast, but failed
	}
	var ae *client.APIError
	if !errors.As(errs[0], &ae) || ae.Status != http.StatusTooManyRequests {
		t.Fatalf("first error = %v, want the 429", errs[0])
	}

	sum := s.summary()
	if sum.attempted() != 16 || sum.failed != 4 {
		t.Fatalf("attempted %d failed %d, want 16 and 4", sum.attempted(), sum.failed)
	}
	if ms, _, _, _ := sum.quantile(0.25); ms != 1 {
		t.Errorf("p25 = %v ms, want 1 (the successes)", ms)
	}
	// The failures sort above every success, however fast they returned.
	if v := sum.sorted[len(sum.sorted)-1]; v != failedNS {
		t.Errorf("slowest sample = %d, want the failure marker", v)
	}
	inf := summary{sorted: []int64{1e6, 1e6, failedNS, failedNS, failedNS, failedNS, failedNS, failedNS, failedNS, failedNS, failedNS, failedNS, failedNS, failedNS}}
	if ms, _, _, _ := inf.quantile(0.25); !math.IsInf(ms, 1) {
		t.Errorf("p25 with mostly failures = %v, want +Inf", ms)
	}
	if got := jsonMetrics([]metric{{name: "x", value: math.Inf(1), unit: "ms"}})["x"].Value; got != math.MaxFloat64 {
		t.Errorf("an infinite latency encodes as %v, want the largest float", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("median of four = %v, want the lower middle 2 (nearest rank)", got)
	}
	if got := durMedian([]time.Duration{3 * time.Second, time.Second, 2 * time.Second}, time.Second); got != 2 {
		t.Errorf("durMedian = %v, want 2", got)
	}
}
