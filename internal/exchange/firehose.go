package exchange

import (
	"context"
	"slices"
	"sync"
	"time"

	"fmore/internal/auction"
)

// The firehose is the exchange's round tap: every completed round close
// publishes one record — the round's canonical bid slate, its winners and
// its totals — into a fixed ring, and per-sink pump goroutines deliver the
// records to attached Sinks. Bids stay sealed until their round closes, so
// the round is the unit; nothing on the bid path touches the tap.
//
// The ring is guarded by one mutex that the producer holds only to copy a
// record in, and a pump only to copy a batch out: a sink runs outside it,
// so a slow (or wedged) sink never delays a round close. A sink that falls
// more than a ring behind loses the oldest records, and the loss is
// counted. Every pump cursor moves under the same mutex, which is what
// makes Stats exact and monotone and lets a producer wake every pump
// attached before its record without a lost-wakeup window.
//
// Until the first Attach the ring is not allocated and a round close costs
// one uncontended lock, so an exchange nobody observes pays nothing more.

// tapRing is the ring capacity in round records.
const tapRing = 128

// tapBatch caps the records copied out per ConsumeTap call; it bounds both
// the pump's scratch and how long a pump holds the ring's mutex.
const tapBatch = 32

// TapKind enumerates firehose event kinds.
type TapKind uint8

// TapRoundClosed is one completed round close (Failed marks a round whose
// scoring or winner determination errored). It is the only kind.
const TapRoundClosed TapKind = 1

// TapEvent is one firehose record: a closed round.
type TapEvent struct {
	Kind  TapKind
	Job   string
	Round int
	// Bids is the round's canonical slate — every bid that entered the
	// round, ascending by Node — exactly the set that was scored. It is
	// set even when the round failed.
	Bids []TapBid
	// Winners are the selected bids in selection order (empty when the
	// round failed).
	Winners []TapWinner
	// Payment is the round's total payment across its winners.
	Payment float64
	// Profit is the round's aggregator profit (Eq 6).
	Profit float64
	// Latency is the round's close-to-outcome duration.
	Latency time.Duration
	// Failed marks a round whose bid set poisoned scoring or selection.
	Failed bool
}

// TapBid is one sealed bid of a closed round: the node and the payment it
// asked for.
type TapBid struct {
	Node  int
	Price float64
}

// TapWinner is one selected bid: the node, the payment it asked for, the
// payment granted and its score under the job's rule.
type TapWinner struct {
	Node    int
	Price   float64
	Payment float64
	Score   float64
}

// copyFrom makes e a deep copy of src, reusing e's slice capacity.
func (e *TapEvent) copyFrom(src *TapEvent) {
	bids, winners := e.Bids[:0], e.Winners[:0]
	*e = *src
	e.Bids = append(bids, src.Bids...)
	e.Winners = append(winners, src.Winners...)
}

// Sink consumes firehose batches. ConsumeTap receives records in
// publication order plus the number of records lost to ring overrun since
// the previous delivery. The events and their Bids and Winners slices are
// the pump's reused scratch — a sink that retains them beyond the call
// must copy them. A sink may block (its pump stalls, the producers don't),
// but a blocked sink drops everything that laps the ring while it sleeps.
type Sink interface {
	ConsumeTap(events []TapEvent, dropped uint64)
}

// Firehose is the exchange's round tap; obtain it via Exchange.Firehose.
type Firehose struct {
	mu sync.Mutex
	// ring is nil until the first Attach; its slots keep their slate
	// buffers, so the steady state allocates nothing.
	ring []TapEvent
	// head counts records ever published; record i lives in ring[i%len].
	head  uint64
	pumps []*tapPump
	// detachedDrops accumulates the drop counts of detached pumps so the
	// exchange-wide total never goes backwards.
	detachedDrops uint64
	size          int
}

func newFirehose(size int) *Firehose { return &Firehose{size: size} }

// roundClosed publishes one completed round. bids is the canonical slate
// that was scored; callers hold the job's closeMu, so it and the pooled
// outcome memory are stable for the copy.
func (f *Firehose) roundClosed(ro *RoundOutcome, bids []auction.Bid) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.ring == nil {
		return
	}
	ev := &f.ring[f.head%uint64(len(f.ring))]
	ev.Kind, ev.Job, ev.Round = TapRoundClosed, ro.JobID, ro.Round
	ev.Bids = slices.Grow(ev.Bids[:0], len(bids))
	for i := range bids {
		ev.Bids = append(ev.Bids, TapBid{Node: bids[i].NodeID, Price: bids[i].Payment})
	}
	ev.Winners = slices.Grow(ev.Winners[:0], len(ro.Outcome.Winners))
	for i := range ro.Outcome.Winners {
		w := &ro.Outcome.Winners[i]
		ev.Winners = append(ev.Winners, TapWinner{Node: w.Bid.NodeID, Price: w.Bid.Payment, Payment: w.Payment, Score: w.Score})
	}
	ev.Payment = ro.Outcome.TotalPayment()
	ev.Profit = ro.Outcome.AggregatorProfit
	ev.Latency = ro.Latency
	ev.Failed = ro.Err != nil
	f.head++
	for _, p := range f.pumps {
		select {
		case p.notify <- struct{}{}:
		default:
		}
	}
}

// Attach subscribes a sink from the current position of the stream (no
// replay) and returns its detach function. The first Attach allocates the
// ring and turns recording on for good. Detach is idempotent and never
// waits on the pump, so a sink wedged inside ConsumeTap cannot wedge the
// caller.
func (f *Firehose) Attach(s Sink) (detach func()) {
	p := &tapPump{
		sink:   s,
		notify: make(chan struct{}, 1),
		stop:   make(chan struct{}),
		buf:    make([]TapEvent, tapBatch),
	}
	f.mu.Lock()
	if f.ring == nil {
		f.ring = make([]TapEvent, f.size)
	}
	p.read, p.consumed = f.head, f.head
	f.pumps = append(f.pumps, p)
	f.mu.Unlock()
	go p.run(f)

	return func() {
		f.mu.Lock()
		defer f.mu.Unlock()
		if !slices.Contains(f.pumps, p) {
			return
		}
		f.pumps = slices.DeleteFunc(f.pumps, func(q *tapPump) bool { return q == p })
		// Freeze the pump's loss into the exchange-wide total; drops after
		// this point have no audience.
		f.detachedDrops += p.dropped + f.lag(p)
		p.halt()
	}
}

// lag is how many published records the pump can no longer deliver
// because the ring has lapped its cursor — the live part of its drop count
// (a wedged sink's loss keeps growing here while its pump is stuck inside
// ConsumeTap). Callers hold f.mu.
func (f *Firehose) lag(p *tapPump) uint64 {
	if behind := f.head - p.read; behind > uint64(len(f.ring)) {
		return behind - uint64(len(f.ring))
	}
	return 0
}

// Stats returns the records published since recording began and the total
// records dropped across all sinks, past and present. Both are monotone.
func (f *Firehose) Stats() (published, dropped uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	dropped = f.detachedDrops
	for _, p := range f.pumps {
		dropped += p.dropped + f.lag(p)
	}
	return f.head, dropped
}

// Drain blocks until every currently attached sink has been offered all
// records published before the call (delivered or counted dropped), or ctx
// expires. It is a test and shutdown aid — producers never call it.
func (f *Firehose) Drain(ctx context.Context) error {
	f.mu.Lock()
	target := f.head
	f.mu.Unlock()
	for !f.settled(target) {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	return nil
}

func (f *Firehose) settled(target uint64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, p := range f.pumps {
		if p.consumed < target {
			return false
		}
	}
	return true
}

// stopAll signals every pump to exit without waiting for any of them (a
// wedged sink must not wedge Exchange.Close).
func (f *Firehose) stopAll() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, p := range f.pumps {
		p.halt()
	}
}

// next copies the pump's next batch out of the ring and advances its
// cursor, first counting (and skipping) whatever the ring lapped. It
// returns no events when the pump is caught up.
func (f *Firehose) next(p *tapPump) (events []TapEvent, dropped uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	p.consumed = p.read // the previous batch has been delivered
	dropped = f.lag(p)
	p.dropped += dropped
	p.read += dropped
	n := min(f.head-p.read, tapBatch)
	for i := range n {
		p.buf[i].copyFrom(&f.ring[(p.read+i)%uint64(len(f.ring))])
	}
	p.read += n
	return p.buf[:n], dropped
}

// tapPump drives one sink. Its cursors are guarded by the firehose's mu:
// read is the next record to copy out, consumed trails it until the sink
// returns (Drain's progress witness), and dropped is the overrun loss
// already reported (or being reported) to the sink.
type tapPump struct {
	sink   Sink
	notify chan struct{}
	stop   chan struct{}

	read, consumed, dropped uint64

	buf []TapEvent
}

// halt closes stop once; callers hold the firehose's mu.
func (p *tapPump) halt() {
	select {
	case <-p.stop:
	default:
		close(p.stop)
	}
}

func (p *tapPump) run(f *Firehose) {
	for {
		events, dropped := f.next(p)
		if len(events) == 0 {
			select {
			case <-p.stop:
				return
			case <-p.notify:
			}
			continue
		}
		p.sink.ConsumeTap(events, dropped)
		select {
		case <-p.stop:
			return
		default:
		}
	}
}
