package exchange

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"fmore/internal/auction"
)

// collectSink buffers every delivered event (copying out of the pump's
// reused scratch) and sums the reported drops.
type collectSink struct {
	mu      sync.Mutex
	events  []TapEvent
	dropped uint64
}

func (s *collectSink) ConsumeTap(events []TapEvent, dropped uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = append(s.events, events...)
	s.dropped += dropped
}

func (s *collectSink) snapshot() ([]TapEvent, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]TapEvent(nil), s.events...), s.dropped
}

// wedgedSink blocks forever inside its first ConsumeTap call — the
// pathological slow consumer the never-block rule is about.
type wedgedSink struct {
	entered chan struct{}
	once    sync.Once
	release chan struct{}
}

func (s *wedgedSink) ConsumeTap([]TapEvent, uint64) {
	s.once.Do(func() { close(s.entered) })
	<-s.release
}

func drainFirehose(t *testing.T, f *Firehose) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// TestFirehoseTapsAuctionEvents checks the record schema end to end: a
// closed round surfaces through an attached sink as exactly one event
// carrying the canonical slate, the winners and the round totals the
// aggregation layer derives its rollups from.
func TestFirehoseTapsAuctionEvents(t *testing.T) {
	const bidders = 8
	ex := New(Options{})
	defer ex.Close()

	sink := &collectSink{}
	detach := ex.Firehose().Attach(sink)
	defer detach()

	job, err := ex.CreateJob(JobSpec{ID: "tap-job", Auction: auction.Config{Rule: testRule(t, 0), K: 3}})
	if err != nil {
		t.Fatal(err)
	}
	bids := testBids(0, 1, bidders)
	for i := range bids { // arrival order must not leak into the slate
		if _, err := ex.SubmitBid(job.ID(), bids[len(bids)-1-i]); err != nil {
			t.Fatal(err)
		}
	}
	ro, err := ex.CloseRound(job.ID())
	if err != nil {
		t.Fatal(err)
	}
	drainFirehose(t, ex.Firehose())

	events, dropped := sink.snapshot()
	if dropped != 0 {
		t.Fatalf("dropped = %d, want 0", dropped)
	}
	if len(events) != 1 {
		t.Fatalf("events = %d, want 1 per round", len(events))
	}
	ev := events[0]
	if ev.Kind != TapRoundClosed || ev.Job != "tap-job" || ev.Round != 1 {
		t.Fatalf("event = %v %q round %d, want round_closed tap-job round 1", ev.Kind, ev.Job, ev.Round)
	}
	if len(ev.Bids) != bidders {
		t.Fatalf("slate = %d bids, want %d", len(ev.Bids), bidders)
	}
	for i, b := range ev.Bids { // testBids numbers nodes 0..n-1
		if b.Node != bids[i].NodeID || b.Price != bids[i].Payment {
			t.Fatalf("slate[%d] = %+v, want node %d price %v", i, b, bids[i].NodeID, bids[i].Payment)
		}
	}
	if len(ev.Winners) != len(ro.Outcome.Winners) {
		t.Fatalf("winners = %d, want %d", len(ev.Winners), len(ro.Outcome.Winners))
	}
	for i, w := range ev.Winners {
		want := ro.Outcome.Winners[i]
		if w.Node != want.Bid.NodeID || w.Price != want.Bid.Payment || w.Payment != want.Payment || w.Score != want.Score {
			t.Fatalf("winner %d = %+v, want node %d price %v payment %v score %v",
				i, w, want.Bid.NodeID, want.Bid.Payment, want.Payment, want.Score)
		}
	}
	if ev.Payment != ro.Outcome.TotalPayment() || ev.Profit != ro.Outcome.AggregatorProfit ||
		ev.Failed || ev.Latency <= 0 {
		t.Fatalf("round totals = payment %v profit %v failed %v latency %v, want %v %v false >0",
			ev.Payment, ev.Profit, ev.Failed, ev.Latency, ro.Outcome.TotalPayment(), ro.Outcome.AggregatorProfit)
	}

	if pub, drop := ex.Firehose().Stats(); pub != 1 || drop != 0 {
		t.Fatalf("Stats = (%d, %d), want (1, 0)", pub, drop)
	}
	snap := ex.Metrics()
	if snap.FirehoseEvents != 1 || snap.FirehoseDropped != 0 {
		t.Fatalf("snapshot firehose = (%d, %d), want (1, 0)", snap.FirehoseEvents, snap.FirehoseDropped)
	}
}

// TestFirehoseFailedRoundKeepsSlate: a round whose bid set poisons scoring
// still publishes its slate, so its bids are counted downstream. SubmitBid
// rejects non-finite qualities, so the poisoned bid enters the intake
// directly.
func TestFirehoseFailedRoundKeepsSlate(t *testing.T) {
	ex := New(Options{})
	defer ex.Close()
	sink := &collectSink{}
	defer ex.Firehose().Attach(sink)()

	job, err := ex.CreateJob(JobSpec{ID: "poisoned", Auction: auction.Config{Rule: testRule(t, 4), K: 1}})
	if err != nil {
		t.Fatal(err)
	}
	bids := testBids(4, 1, 3)
	bids[1].Qualities = []float64{math.NaN(), 0.5}
	for _, b := range bids {
		if _, err := job.intake.submit(b, &job.closed, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ex.CloseRound(job.ID()); err == nil {
		t.Fatal("poisoned round closed without error")
	}
	drainFirehose(t, ex.Firehose())

	events, _ := sink.snapshot()
	if len(events) != 1 {
		t.Fatalf("events = %d, want 1", len(events))
	}
	if ev := events[0]; !ev.Failed || len(ev.Bids) != len(bids) || len(ev.Winners) != 0 || ev.Payment != 0 {
		t.Fatalf("failed round event = %+v, want Failed with %d bids and no winners", ev, len(bids))
	}
}

// TestFirehoseAttachStartsAtLivePosition: a late sink sees only what is
// published after it attaches — the firehose is a tap, not a log.
func TestFirehoseAttachStartsAtLivePosition(t *testing.T) {
	ex := New(Options{})
	defer ex.Close()

	// First sink turns recording on, then leaves.
	first := &collectSink{}
	detachFirst := ex.Firehose().Attach(first)

	job, err := ex.CreateJob(JobSpec{Auction: auction.Config{Rule: testRule(t, 1), K: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range testBids(1, 1, 4) {
		if _, err := ex.SubmitBid(job.ID(), b); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ex.CloseRound(job.ID()); err != nil {
		t.Fatal(err)
	}
	drainFirehose(t, ex.Firehose())
	detachFirst()
	detachFirst() // idempotent

	late := &collectSink{}
	detach := ex.Firehose().Attach(late)
	defer detach()
	for _, b := range testBids(1, 2, 4) {
		if _, err := ex.SubmitBid(job.ID(), b); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ex.CloseRound(job.ID()); err != nil {
		t.Fatal(err)
	}
	drainFirehose(t, ex.Firehose())

	events, _ := late.snapshot()
	if len(events) == 0 {
		t.Fatal("late sink saw nothing")
	}
	for _, ev := range events {
		if ev.Round != 2 {
			t.Fatalf("late sink saw round-%d event %+v, want only round 2", ev.Round, ev)
		}
	}
}

// wedgedFixture is an exchange with a two-record ring, a wedged sink stuck
// inside its first ConsumeTap (on a warm-up round's record), and a job
// whose later rounds overrun that sink's cursor.
func wedgedFixture(t *testing.T, jobID string) (ex *Exchange, detachWedged func()) {
	t.Helper()
	ex = New(Options{})
	ex.fh = newFirehose(2) // the smallest ring a wedged sink can be lapped in
	t.Cleanup(func() { ex.Close() })

	wedged := &wedgedSink{entered: make(chan struct{}), release: make(chan struct{})}
	t.Cleanup(func() { close(wedged.release) })
	detachWedged = ex.Firehose().Attach(wedged)
	t.Cleanup(detachWedged)

	job, err := ex.CreateJob(JobSpec{ID: jobID, Auction: auction.Config{Rule: testRule(t, 2), K: 4}})
	if err != nil {
		t.Fatal(err)
	}
	// Ensure the wedged pump is truly inside ConsumeTap (not merely slow)
	// before the main workload, so overruns happen against a stuck cursor.
	// High node IDs keep the warm-up bids clear of any fleet.
	for i, b := range testBids(2, 1, 4) {
		b.NodeID = 1000 + i
		if _, err := ex.SubmitBid(job.ID(), b); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ex.CloseRound(job.ID()); err != nil {
		t.Fatal(err)
	}
	<-wedged.entered
	return ex, detachWedged
}

// TestFirehoseWedgedSinkNeverBlocksProducers is the never-block acceptance
// test: with a sink permanently stuck inside ConsumeTap and a two-record
// ring, 64 bidders and repeated round closes must proceed unimpeded (any
// completion at all proves producers never wait on the sink — it is wedged
// for the whole test), the overrun must be counted as drops, and a healthy
// sink attached alongside must still receive every round close.
func TestFirehoseWedgedSinkNeverBlocksProducers(t *testing.T) {
	const (
		bidders = 64
		rounds  = 4
	)
	ex, detachWedged := wedgedFixture(t, "wedge")
	healthy := &collectSink{}
	detachHealthy := ex.Firehose().Attach(healthy)
	defer detachHealthy()

	start := time.Now()
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for i := 0; i < bidders; i++ {
			wg.Add(1)
			go func(node int) {
				defer wg.Done()
				b := testBids(2, round+2, bidders)[node]
				if _, err := ex.SubmitBid("wedge", b); err != nil {
					t.Error(err)
				}
			}(i)
		}
		wg.Wait()
		if _, err := ex.CloseRound("wedge"); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)

	// Producers finished while the sink never returned; generous bound only
	// to catch a future regression into second-scale blocking.
	if elapsed > 30*time.Second {
		t.Fatalf("workload took %v with a wedged sink attached", elapsed)
	}

	// Two-record ring, four rounds past the wedged pump's cursor: it must
	// have been lapped and the loss counted.
	_, dropped := ex.Firehose().Stats()
	if dropped == 0 {
		t.Fatal("wedged sink overran the ring but Stats reports no drops")
	}
	snap := ex.Metrics()
	if snap.FirehoseDropped == 0 {
		t.Fatal("snapshot reports no firehose drops")
	}
	if snap.RoundsTotal != rounds+1 { // +1: the warm-up round
		t.Fatalf("rounds_total = %d, want %d", snap.RoundsTotal, rounds+1)
	}

	// Detaching the wedged sink freezes its loss into the exchange total
	// (monotone), and must not wait for the stuck ConsumeTap to return.
	before := snap.FirehoseDropped
	done := make(chan struct{})
	go func() { detachWedged(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("detach blocked on a wedged sink")
	}
	if after := ex.Metrics().FirehoseDropped; after < before {
		t.Fatalf("dropped total went backwards across detach: %d -> %d", before, after)
	}

	// The healthy sink shares no fate with the wedged one: it must have
	// seen every round close. (Drain only settles now that the wedged pump
	// is detached — it can never consume.)
	drainFirehose(t, ex.Firehose())
	events, _ := healthy.snapshot()
	closes := 0
	for _, ev := range events {
		if ev.Kind == TapRoundClosed {
			closes++
		}
	}
	if closes != rounds {
		t.Fatalf("healthy sink saw %d round closes, want %d", closes, rounds)
	}
}

// TestFirehoseDroppedTotalMonotone polls Stats and the metrics snapshot
// while a wedged sink is overrun and then detached: the drop total feeds a
// Prometheus counter, so no poll may ever read less than an earlier one.
func TestFirehoseDroppedTotalMonotone(t *testing.T) {
	ex, detachWedged := wedgedFixture(t, "monotone")

	stop := make(chan struct{})
	errs := make(chan string, 2)
	var wg sync.WaitGroup
	poll := func(name string, read func() uint64) {
		defer wg.Done()
		var last uint64
		for {
			v := read()
			if v < last {
				errs <- fmt.Sprintf("%s went backwards: %d -> %d", name, last, v)
				return
			}
			last = v
			select {
			case <-stop:
				return
			default:
			}
		}
	}
	wg.Add(2)
	go poll("Stats dropped", func() uint64 { _, d := ex.Firehose().Stats(); return d })
	go poll("firehose_dropped", func() uint64 { return uint64(ex.Metrics().FirehoseDropped) })

	const rounds = 16
	for round := 0; round < rounds; round++ {
		if round == rounds/2 {
			detachWedged()
		}
		for _, b := range testBids(2, round+2, 4) {
			if _, err := ex.SubmitBid("monotone", b); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := ex.CloseRound("monotone"); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	if _, dropped := ex.Firehose().Stats(); dropped == 0 {
		t.Fatal("wedged sink overran the ring but no drops were counted")
	}
}

// TestFirehoseUnobservedExchangeRecordsNothing: before any Attach the tap
// is off and Stats stay zero.
func TestFirehoseUnobservedExchangeRecordsNothing(t *testing.T) {
	ex := New(Options{})
	defer ex.Close()
	job, err := ex.CreateJob(JobSpec{Auction: auction.Config{Rule: testRule(t, 3), K: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range testBids(3, 1, 4) {
		if _, err := ex.SubmitBid(job.ID(), b); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ex.CloseRound(job.ID()); err != nil {
		t.Fatal(err)
	}
	if pub, drop := ex.Firehose().Stats(); pub != 0 || drop != 0 {
		t.Fatalf("Stats = (%d, %d) on an unobserved exchange, want (0, 0)", pub, drop)
	}
}
