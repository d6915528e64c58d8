package exchange

import (
	"bufio"
	"io"
	"strconv"

	"fmore/internal/partition"
)

// Prometheus text exposition (format 0.0.4), hand-rolled so the exchange
// stays dependency-free. Every metric is prefixed fmore_exchange_ and
// derives from the same atomics the JSON snapshot reads, so a scrape takes
// no lock in the exchange core at all — jobs_active walks the
// epoch-published job table behind one atomic load, never blocking (or
// blocked by) job churn.
//
// promCatalog below is the one declaration of every family: writePrometheus
// renders it, and the tests check the page and doc.go's catalog against it.

// promScope says when a family is exposed.
type promScope uint8

const (
	scopeAlways      promScope = iota
	scopePartitioned           // on a replica with a partition map (Options.Partition)
	scopeAdmission             // with an admission controller (Options.Admission)
)

// promFamily is one row of the catalog. An unlabelled family has one
// sample, value; the labelled families and the latency histogram write
// their own samples instead.
type promFamily struct {
	name  string // without the fmore_exchange_ prefix
	typ   string // counter, gauge or histogram
	scope promScope
	help  string
	// value is the family's one sample. Prometheus samples are float64, so
	// every value travels as one; a counter still prints as an integer.
	value func(*scrape) float64
	// samples, when set, writes the family's sample lines.
	samples func(*bufio.Writer, *scrape)
}

// scrape is the state one exposition reads.
type scrape struct {
	Snapshot
	// local and pmap are the partition this replica serves and its map;
	// pmap is nil on an unpartitioned exchange.
	local string
	pmap  *partition.Map
	// latCum and latSumSec are the latency histogram's cumulative buckets
	// and sum; its count is Snapshot.RoundsTotal.
	latCum    [len(latencyBuckets)]int64
	latSumSec float64
}

func (s *scrape) exposes(scope promScope) bool {
	switch scope {
	case scopePartitioned:
		return s.pmap != nil
	case scopeAdmission:
		return s.AdmissionEnabled
	}
	return true
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// promCatalog lists every family in exposition order.
var promCatalog = [...]promFamily{
	{"uptime_seconds", "gauge", scopeAlways, "Seconds since the exchange started.",
		func(s *scrape) float64 { return s.UptimeSec }, nil},
	{"jobs_active", "gauge", scopeAlways, "Hosted jobs currently accepting or scoring bids (derived from the live job map).",
		func(s *scrape) float64 { return float64(s.JobsActive) }, nil},
	{"jobs_created_total", "counter", scopeAlways, "Jobs created over this process lifetime (includes WAL-replayed creations).",
		func(s *scrape) float64 { return float64(s.JobsCreated) }, nil},
	{"nodes_known", "gauge", scopeAlways, "Nodes in the shared registry.",
		func(s *scrape) float64 { return float64(s.NodesKnown) }, nil},
	{"rounds_total", "counter", scopeAlways, "Completed auction rounds.",
		func(s *scrape) float64 { return float64(s.RoundsTotal) }, nil},
	{"rounds_failed_total", "counter", scopeAlways, "Rounds whose scoring or winner determination errored.",
		func(s *scrape) float64 { return float64(s.RoundsFailed) }, nil},
	{"idle_ticks_total", "counter", scopeAlways, "Bid windows that expired below the round quorum.",
		func(s *scrape) float64 { return float64(s.IdleTicks) }, nil},
	{"bids_accepted_total", "counter", scopeAlways, "Sealed bids admitted into a round.",
		func(s *scrape) float64 { return float64(s.BidsAccepted) }, nil},
	{"bids_rejected_total", "counter", scopeAlways, "Bids refused (validation, policy, duplicate, closed job).",
		func(s *scrape) float64 { return float64(s.BidsRejected) }, nil},
	{"wal_snapshots_total", "counter", scopeAlways, "Completed WAL compactions (snapshot + segment rotation).",
		func(s *scrape) float64 { return float64(s.WalSnapshots) }, nil},
	{"wal_snapshot_errors_total", "counter", scopeAlways, "WAL compaction attempts that failed and will be retried.",
		func(s *scrape) float64 { return float64(s.WalSnapshotErrors) }, nil},
	{"wal_segment_count", "gauge", scopeAlways, "Live WAL segments a restart would replay.",
		func(s *scrape) float64 { return float64(s.WalSegmentCount) }, nil},
	{"wal_bytes", "gauge", scopeAlways, "Logical bytes across live WAL segments (sealed plus active tail; preallocated-but-unwritten space is excluded).",
		func(s *scrape) float64 { return float64(s.WalBytes) }, nil},
	{"wal_fsync_total", "counter", scopeAlways, "Group commits (fsyncs) of the outcome log.",
		func(s *scrape) float64 { return float64(s.WalFsyncTotal) }, nil},
	{"wal_fsync_batched_records", "counter", scopeAlways, "Records made durable by those group commits; the ratio to wal_fsync_total is the achieved batch size.",
		func(s *scrape) float64 { return float64(s.WalFsyncBatchedRecords) }, nil},
	{"wal_failed", "gauge", scopeAlways, "1 after the outcome log's first sticky error (replica degraded, refusing durable writes), else 0.",
		func(s *scrape) float64 { return boolGauge(s.WalFailed) }, nil},
	{"wal_last_error_unix", "gauge", scopeAlways, "Unix time of the outcome log's first sticky error, 0 while healthy.",
		func(s *scrape) float64 { return float64(s.WalLastErrorUnix) }, nil},
	{"firehose_events_total", "counter", scopeAlways, "Round records (one per round close) published into the firehose since a sink first attached.",
		func(s *scrape) float64 { return float64(s.FirehoseEvents) }, nil},
	{"firehose_dropped_total", "counter", scopeAlways, "Firehose round records lost to ring overrun across all sinks.",
		func(s *scrape) float64 { return float64(s.FirehoseDropped) }, nil},
	// Info-style: constant 1, the partition in the label, the idiomatic way
	// to join other series onto topology.
	{"partition_id", "gauge", scopePartitioned, "Partition served by this replica (info-style: constant 1, partition in the label).",
		nil, func(b *bufio.Writer, s *scrape) {
			put(b, `fmore_exchange_partition_id{partition="`, s.local, "\"} 1\n")
		}},
	{"partition_map_version", "gauge", scopePartitioned, "Version of the cluster partition map this replica routes by.",
		func(s *scrape) float64 { return float64(s.pmap.Version) }, nil},
	{"wrong_partition_total", "counter", scopePartitioned, "Job-scoped requests refused because the map places the job on another replica.",
		func(s *scrape) float64 { return float64(s.WrongPartition) }, nil},
	{"admission_shed_total", "counter", scopeAdmission, "Requests shed by the admission controller, by limit scope.",
		nil, func(b *bufio.Writer, s *scrape) {
			for _, sc := range [...]struct {
				reason string
				v      int64
			}{
				{"global", s.AdmissionShedGlobal},
				{"node", s.AdmissionShedNode},
				{"job", s.AdmissionShedJob},
				{"inflight", s.AdmissionShedInflight},
			} {
				put(b, `fmore_exchange_admission_shed_total{reason="`, sc.reason, `"} `)
				putInt(b, sc.v)
				put(b, "\n")
			}
		}},
	{"admission_sse_evicted_total", "counter", scopeAdmission, "SSE streams evicted (oldest first) to admit new subscribers at the cap.",
		func(s *scrape) float64 { return float64(s.AdmissionSSEEvicted) }, nil},
	{"admission_inflight", "gauge", scopeAdmission, "Bid-submit requests currently inside the in-flight gate.",
		func(s *scrape) float64 { return float64(s.AdmissionInflight) }, nil},
	{"admission_sse_active", "gauge", scopeAdmission, "SSE streams currently registered with the admission controller.",
		func(s *scrape) float64 { return float64(s.AdmissionSSEActive) }, nil},
	{"admission_overloaded", "gauge", scopeAdmission, "1 while the exchange advertises overload on /v1/healthz, else 0.",
		func(s *scrape) float64 { return boolGauge(s.AdmissionOverloaded) }, nil},
	{"round_latency_p50_seconds", "gauge", scopeAlways, "Median close-to-outcome latency over the sliding percentile window.",
		func(s *scrape) float64 { return s.RoundLatencyP50Ms / 1e3 }, nil},
	{"round_latency_p99_seconds", "gauge", scopeAlways, "99th-percentile close-to-outcome latency over the sliding percentile window.",
		func(s *scrape) float64 { return s.RoundLatencyP99Ms / 1e3 }, nil},
	// Bucketed at write time by observeRound; a scrape only loads the
	// bucket counters.
	{"round_latency_seconds", "histogram", scopeAlways, "Close-to-outcome latency of completed rounds.",
		nil, func(b *bufio.Writer, s *scrape) {
			for i, bound := range latencyBuckets {
				put(b, `fmore_exchange_round_latency_seconds_bucket{le="`)
				putFloat(b, bound)
				put(b, `"} `)
				putInt(b, s.latCum[i])
				put(b, "\n")
			}
			put(b, `fmore_exchange_round_latency_seconds_bucket{le="+Inf"} `)
			putInt(b, s.RoundsTotal)
			put(b, "\nfmore_exchange_round_latency_seconds_sum ")
			putFloat(b, s.latSumSec)
			put(b, "\nfmore_exchange_round_latency_seconds_count ")
			putInt(b, s.RoundsTotal)
			put(b, "\n")
		}},
}

// writePrometheus renders the exchange's metrics in the exposition format.
func writePrometheus(w io.Writer, ex *Exchange) error {
	var s scrape
	// Histogram buckets first, then the snapshot's one load of the round
	// total, which is both rounds_total and the histogram's count.
	// observeRound counts a round before its bucket, so the count is never
	// below the loaded buckets and the two series always agree.
	s.latCum, s.latSumSec = ex.metrics.latencyHistogram()
	s.Snapshot = ex.Metrics()
	if p := ex.Partition(); p != nil {
		s.local, s.pmap = p.Local, p.Map.Load()
	}

	b := bufio.NewWriter(w)
	for i := range promCatalog {
		f := &promCatalog[i]
		if !s.exposes(f.scope) {
			continue
		}
		put(b, "# HELP fmore_exchange_", f.name, " ", f.help, "\n")
		put(b, "# TYPE fmore_exchange_", f.name, " ", f.typ, "\n")
		if f.samples != nil {
			f.samples(b, &s)
			continue
		}
		put(b, "fmore_exchange_", f.name, " ")
		if v := f.value(&s); f.typ == "counter" {
			putInt(b, int64(v))
		} else {
			putFloat(b, v)
		}
		put(b, "\n")
	}
	return b.Flush()
}

// put writes parts in order; unlike a concatenation it allocates nothing.
func put(b *bufio.Writer, parts ...string) {
	for _, p := range parts {
		b.WriteString(p)
	}
}

func putInt(b *bufio.Writer, v int64) {
	b.Write(strconv.AppendInt(b.AvailableBuffer(), v, 10))
}

// putFloat writes the shortest decimal that reads back as v, the form the
// exposition format expects.
func putFloat(b *bufio.Writer, v float64) {
	b.Write(strconv.AppendFloat(b.AvailableBuffer(), v, 'g', -1, 64))
}
