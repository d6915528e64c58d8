package exchange

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"fmore/internal/admission"
	"fmore/internal/auction"
	"fmore/internal/partition"
	"fmore/internal/promtext"
)

// assertCatalog checks a parsed page against promCatalog: the families of
// every scope exposed(scope) accepts appear in catalog order with the
// catalog's type and help, and nothing else appears.
func assertCatalog(t *testing.T, page *promtext.Metrics, exposed func(promScope) bool) {
	t.Helper()
	var want []string
	for _, f := range promCatalog {
		if !exposed(f.scope) {
			continue
		}
		name := "fmore_exchange_" + f.name
		want = append(want, name)
		got, ok := page.Families[name]
		if !ok {
			t.Errorf("metric %s missing from exposition", name)
			continue
		}
		if got.Type != f.typ {
			t.Errorf("metric %s type = %q, want %q", name, got.Type, f.typ)
		}
		if got.Help != f.help {
			t.Errorf("metric %s help = %q, want %q", name, got.Help, f.help)
		}
	}
	if !slices.Equal(page.Order, want) {
		t.Errorf("exposed families = %v, want %v", page.Order, want)
	}
}

// TestPrometheusExposition scrapes a live exchange and validates the page
// with the promtext parser: legal syntax, exactly the unconditional rows
// of promCatalog present, values agreeing with the JSON snapshot, and the
// latency histogram well-formed (cumulative buckets are promtext's own
// check) with _count tracking rounds_total.
func TestPrometheusExposition(t *testing.T) {
	ex := New(Options{})
	defer ex.Close()
	sink := &collectSink{}
	defer ex.Firehose().Attach(sink)()

	if _, err := ex.CreateJob(JobSpec{ID: "prom", Auction: auction.Config{Rule: testRule(t, 0), K: 2}}); err != nil {
		t.Fatal(err)
	}
	const rounds = 3
	for r := 1; r <= rounds; r++ {
		runRound(t, ex, "prom", r)
	}

	var buf bytes.Buffer
	if err := writePrometheus(&buf, ex); err != nil {
		t.Fatal(err)
	}
	page, err := promtext.Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, buf.String())
	}

	assertCatalog(t, page, func(sc promScope) bool { return sc == scopeAlways })

	snap := ex.Metrics()
	for name, want := range map[string]float64{
		"fmore_exchange_jobs_active":            float64(snap.JobsActive),
		"fmore_exchange_rounds_total":           float64(snap.RoundsTotal),
		"fmore_exchange_bids_accepted_total":    float64(snap.BidsAccepted),
		"fmore_exchange_firehose_events_total":  float64(snap.FirehoseEvents),
		"fmore_exchange_firehose_dropped_total": 0,
		"fmore_exchange_wal_segment_count":      0, // in-memory exchange
		"fmore_exchange_wal_bytes":              0,
	} {
		got, err := page.Value(name)
		if err != nil {
			t.Errorf("%v", err)
			continue
		}
		if got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}

	// Histogram: every round landed in some bucket, so _count (== the +Inf
	// bucket, promtext checks their agreement) equals rounds_total and the
	// sum is positive.
	hist := page.Families["fmore_exchange_round_latency_seconds"]
	var count, sum float64
	for _, s := range hist.Samples {
		switch {
		case strings.HasSuffix(s.Name, "_count"):
			count = s.Value
		case strings.HasSuffix(s.Name, "_sum"):
			sum = s.Value
		}
	}
	if count != rounds {
		t.Errorf("latency histogram _count = %v, want %v", count, rounds)
	}
	if sum <= 0 {
		t.Errorf("latency histogram _sum = %v, want > 0", sum)
	}
}

// TestPrometheusEndpointMonotoneCounters scrapes /v1/metrics/prometheus
// twice across more work and requires every counter to be monotone.
func TestPrometheusEndpointMonotoneCounters(t *testing.T) {
	ex := New(Options{})
	defer ex.Close()
	srv := httptest.NewServer(NewHandler(ex))
	defer srv.Close()

	if _, err := ex.CreateJob(JobSpec{ID: "mono", Auction: auction.Config{Rule: testRule(t, 1), K: 2}}); err != nil {
		t.Fatal(err)
	}
	runRound(t, ex, "mono", 1)

	scrape := func() *promtext.Metrics {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + "/v1/metrics/prometheus")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("scrape status = %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("scrape content-type = %q", ct)
		}
		page, err := promtext.Parse(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return page
	}

	first := scrape()
	runRound(t, ex, "mono", 2)
	runRound(t, ex, "mono", 3)
	second := scrape()

	for name, f := range first.Families {
		if f.Type != "counter" && f.Type != "histogram" {
			continue
		}
		for _, s := range f.Samples {
			was := s.Value
			for _, s2 := range second.Families[name].Samples {
				if s2.Name == s.Name && labelsEqual(s.Labels, s2.Labels) {
					if s2.Value < was {
						t.Errorf("%s%v went backwards: %v -> %v", s.Name, s.Labels, was, s2.Value)
					}
				}
			}
		}
	}
	r1, err := first.Value("fmore_exchange_rounds_total")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := second.Value("fmore_exchange_rounds_total")
	if err != nil {
		t.Fatal(err)
	}
	if r2 != r1+2 {
		t.Errorf("rounds_total %v -> %v across 2 rounds, want +2", r1, r2)
	}
}

func labelsEqual(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// docCatalogLine matches one entry of the metric catalog in doc.go: a
// tab-indented family name (without the fmore_exchange_ prefix) and its
// type.
var docCatalogLine = regexp.MustCompile(`^//\t([a-z0-9_]+)\s+(counter|gauge|histogram)\s`)

// TestPrometheusCatalogDocumented keeps the catalog listed in doc.go's
// Observability section in step with promCatalog: every family the table
// declares is listed with its type, and every listed family is declared.
func TestPrometheusCatalogDocumented(t *testing.T) {
	f, err := os.Open("doc.go")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	documented := map[string]string{}
	inSection := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if heading, ok := strings.CutPrefix(line, "// # "); ok {
			inSection = strings.HasPrefix(heading, "Observability")
			continue
		}
		if m := docCatalogLine.FindStringSubmatch(line); inSection && m != nil {
			if _, dup := documented[m[1]]; dup {
				t.Errorf("doc.go lists %s twice", m[1])
			}
			documented[m[1]] = m[2]
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, fam := range promCatalog {
		typ, ok := documented[fam.name]
		switch {
		case !ok:
			t.Errorf("doc.go's catalog lacks %s", fam.name)
		case typ != fam.typ:
			t.Errorf("doc.go lists %s as %s, promCatalog declares %s", fam.name, typ, fam.typ)
		}
		delete(documented, fam.name)
	}
	for name := range documented {
		t.Errorf("doc.go lists %s, which promCatalog does not declare", name)
	}
}

// TestPrometheusRoundsTotalMatchesHistogramCount races round closes against
// scrapes: on every page rounds_total and the latency histogram's _count
// must be equal (promtext checks _count against the +Inf bucket and the
// buckets' monotonicity).
func TestPrometheusRoundsTotalMatchesHistogramCount(t *testing.T) {
	ex := New(Options{})
	defer ex.Close()
	jobs := []string{"race-a", "race-b"} // one closer each
	for i, id := range jobs {
		if _, err := ex.CreateJob(JobSpec{ID: id, Auction: auction.Config{Rule: testRule(t, i), K: 2}}); err != nil {
			t.Fatal(err)
		}
	}
	var (
		stop   atomic.Bool
		wg     sync.WaitGroup
		errs   = make(chan error, len(jobs))
		scrape bytes.Buffer
	)
	defer func() { // before ex.Close: stop the closers on every path
		stop.Store(true)
		wg.Wait()
	}()
	for _, id := range jobs {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for r := 1; !stop.Load(); r++ {
				for _, b := range testBids(0, r, 3) {
					if _, err := ex.SubmitBid(id, b); err != nil {
						errs <- err
						return
					}
				}
				if _, err := ex.CloseRound(id); err != nil {
					errs <- err
					return
				}
			}
		}(id)
	}
	for i := 0; i < 300; i++ {
		scrape.Reset()
		if err := writePrometheus(&scrape, ex); err != nil {
			t.Fatal(err)
		}
		page, err := promtext.Parse(&scrape)
		if err != nil {
			t.Fatalf("scrape %d does not parse: %v", i, err)
		}
		total, err := page.Value("fmore_exchange_rounds_total")
		if err != nil {
			t.Fatal(err)
		}
		count := math.NaN()
		for _, smp := range page.Families["fmore_exchange_round_latency_seconds"].Samples {
			if smp.Name == "fmore_exchange_round_latency_seconds_count" {
				count = smp.Value
			}
		}
		if total != count {
			t.Fatalf("scrape %d: rounds_total = %v, round_latency_seconds_count = %v", i, total, count)
		}
	}
	stop.Store(true)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if n := ex.Metrics().RoundsTotal; n == 0 {
		t.Fatal("no round closed while scraping")
	}
}

// BenchmarkWritePrometheus renders the full exposition (partitioned, with
// admission) once per op; -benchmem reports the per-scrape allocations.
func BenchmarkWritePrometheus(b *testing.B) {
	ex := New(Options{
		Partition: &partition.Assignment{Local: "p0", Map: partition.NewHandle(twoPartitionMap(1))},
		Admission: admission.NewController(admission.Config{GlobalRate: 1000, GlobalBurst: 1}),
	})
	defer ex.Close()
	b.ReportAllocs()
	for b.Loop() {
		if err := writePrometheus(io.Discard, ex); err != nil {
			b.Fatal(err)
		}
	}
}
