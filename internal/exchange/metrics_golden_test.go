package exchange

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"fmore/internal/admission"
	"fmore/internal/auction"
	"fmore/internal/partition"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// maskedPromSample matches the sample lines whose values depend on wall
// time: the uptime gauge and every round_latency_* series (percentile
// gauges, histogram buckets, sum and count). The name and labels stay
// pinned; only the value after the last space is masked.
var maskedPromSample = regexp.MustCompile(`(?m)^(fmore_exchange_(?:uptime_seconds|round_latency_[a-z0-9_]+)(?:\{[^}]*\})?) .*$`)

// maskedJSONField matches the /v1/metrics fields whose values depend on
// wall time.
var maskedJSONField = regexp.MustCompile(`"(uptime_sec|rounds_per_sec|bids_per_sec|round_latency_p50_ms|round_latency_p99_ms)":[^,}]*`)

// TestMetricsGolden pins both metrics pages byte for byte, so a change to
// how they are rendered must show it keeps every name, HELP and TYPE line,
// label, value and the order of all of them. The exchange is partitioned
// and has admission installed, so every family renders; an admission clock
// that never moves keeps the shed and overload state fixed.
//
// Regenerate with: go test ./internal/exchange -run TestMetricsGolden -update
func TestMetricsGolden(t *testing.T) {
	m := twoPartitionMap(3)
	now := time.Unix(1_700_000_000, 0)
	ex := New(Options{
		Partition: &partition.Assignment{Local: "p0", Map: partition.NewHandle(m)},
		Admission: admission.NewController(admission.Config{
			GlobalRate: 1, GlobalBurst: 18,
			MaxStreams: 4,
			Now:        func() time.Time { return now },
		}),
	})
	defer ex.Close()
	defer ex.Firehose().Attach(&collectSink{})()
	srv := httptest.NewServer(NewHandler(ex))
	defer srv.Close()

	local := jobOwnedBy(t, m, "p0")
	if _, err := ex.CreateJob(JobSpec{ID: local, Seed: 5, Auction: auction.Config{Rule: testRule(t, 0), K: 2}}); err != nil {
		t.Fatal(err)
	}
	var wrong *WrongPartitionError
	if _, err := ex.CreateJob(JobSpec{ID: jobOwnedBy(t, m, "p1"), Auction: auction.Config{Rule: testRule(t, 1), K: 2}}); !errors.As(err, &wrong) {
		t.Fatalf("foreign create: err = %v, want WrongPartitionError", err)
	}
	for r := 1; r <= 3; r++ { // 18 bids: exactly the global burst
		runRound(t, ex, local, r)
	}
	var ov *OverloadError
	if _, err := ex.SubmitBid(local, auction.Bid{NodeID: 9, Qualities: []float64{0.5, 0.5}, Payment: 0.1}); !errors.As(err, &ov) {
		t.Fatalf("bid past the burst: err = %v, want OverloadError", err)
	}

	get := func(path string) []byte {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		return body
	}
	checkGolden(t, "metrics.prom.golden", maskedPromSample.ReplaceAll(get("/v1/metrics/prometheus"), []byte("$1 MASKED")))
	checkGolden(t, "metrics.json.golden", maskedJSONField.ReplaceAll(get("/v1/metrics"), []byte(`"$1":"MASKED"`)))
}

// checkGolden compares got with testdata/name, or rewrites the file under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden file\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}
