package main

import (
	"time"

	"fmore/internal/exchange"
)

// layers computes the per-layer metrics of a traced run, in BENCHMARK.json
// order. Times from the traced load phase come from the benchmark's
// wrappers (SDK transport, handler, firehose sink); entry-point times come
// from the in-process replay; counters are read once, after load stopped;
// wal.recover_s is the restart check's recovery time.
// Self times are differences of medians of nested entry points. Event lags
// run from the moment the close was issued: the exchange publishes a
// round's events before its close returns, so a lag taken from the return
// would read zero or less whenever delivery is quick.
func layers(r *runner, tr *tracer, rep *replayResult, c exchange.Snapshot, recovery metric, before, after runtimeSample, ops int) []metric {
	us := func(name string, d []time.Duration) metric {
		return metric{name: name, value: durMedian(d, time.Microsecond), unit: "us", n: len(d)}
	}
	ns := func(name string, d []time.Duration) metric {
		return metric{name: name, value: durMedian(d, time.Nanosecond), unit: "ns", n: len(d)}
	}
	ratio := func(name, unit string, num, den float64, n int) metric {
		v := 0.0
		if den > 0 {
			v = num / den
		}
		return metric{name: name, value: v, unit: unit, n: n}
	}
	rtt := tr.rttSamples()
	httpBid := us("http.bid_us", tr.durations("http.bid"))
	submit := ns("intake.submit_ns", rep.tr.durations("exchange.SubmitBid"))
	self := httpBid
	self.name, self.value = "http.bid_self_us", httpBid.value-submit.value/1e3

	var sse []time.Duration
	for _, js := range r.jobs {
		if js.watch == nil {
			continue
		}
		seen := js.watch.snapshot()
		js.mu.Lock()
		for _, c := range js.closes {
			if s, ok := seen[c.round]; ok {
				sse = append(sse, s.at.Sub(c.sent))
			}
		}
		js.mu.Unlock()
	}
	walBytes := make([]time.Duration, len(rep.walBytes)) // medianed like durations
	for i, b := range rep.walBytes {
		walBytes[i] = time.Duration(b)
	}
	stats := append(rep.tr.durations("analytics.JobStats"), rep.tr.durations("analytics.NodeStats")...)
	rounds, fsyncs := float64(c.RoundsTotal), float64(c.WalFsyncTotal)
	events, bids := float64(c.FirehoseEvents), float64(c.BidsAccepted)
	consumed := tr.consumeEvents.Load()

	return []metric{
		us("client.rtt_us", rtt),
		httpBid,
		self,
		us("http.close_us", tr.durations("http.close")),
		us("http.read_us", tr.durations("http.read")),
		ns("admission.admit_ns", rep.tr.durations("admission.AdmitBid")),
		{name: "admission.shed", value: float64(c.AdmissionShedTotal), unit: "count", n: int(c.BidsAccepted)},
		submit,
		{name: "intake.allocs_per_bid", value: rep.allocsBid, unit: "count", n: 4096},
		us("close.round_us", rep.tr.durations("exchange.CloseRound")),
		{name: "close.allocs_per_round", value: rep.allocsRound, unit: "count", n: max(1, 4096/r.wl.roundBids)},
		us("auction.select_us", rep.tr.durations("auction.RunScored")),
		ratio("auction.score_ns_per_bid", "ns", float64(rep.scoreNS), float64(rep.scoredBids), rep.scoredBids),
		us("wal.sync_us", rep.tr.durations("exchange.Sync")),
		ratio("wal.fsyncs_per_round", "count", fsyncs, rounds, int(c.RoundsTotal)),
		ratio("wal.records_per_fsync", "count", float64(c.WalFsyncBatchedRecords), fsyncs, int(c.WalFsyncTotal)),
		{name: "wal.bytes_per_round", value: durMedian(walBytes, 1), unit: "B", n: len(walBytes)},
		{name: "wal.snapshots", value: float64(c.WalSnapshots), unit: "count", n: int(c.RoundsTotal)},
		{name: "wal.recover_s", value: recovery.value, unit: recovery.unit, n: recovery.n},
		us("events.sse_lag_us", sse),
		us("events.sub_lag_us", rep.subLag),
		ratio("firehose.events_per_bid", "count", events, bids, int(c.BidsAccepted)),
		ratio("firehose.dropped_ratio", "ratio", float64(c.FirehoseDropped), events, int(c.FirehoseEvents)),
		us("firehose.round_lag_us", rep.tapLag),
		ratio("analytics.consume_ns_per_event", "ns", float64(tr.consumeNS.Load()), float64(consumed), int(consumed)),
		us("analytics.stats_us", stats),
		us("metrics.snapshot_us", rep.tr.durations("exchange.Metrics")),
		us("metrics.prom_us", rep.tr.durations("handler.Prometheus")),
		us("outcome.read_us", rep.tr.durations("job.Outcome")),
		ratio("runtime.allocs_per_op", "count", float64(after.mallocs-before.mallocs), float64(ops), ops),
		ratio("runtime.gc_cpu_fraction", "ratio", after.gcCPU-before.gcCPU, after.total-before.total, 1),
	}
}
