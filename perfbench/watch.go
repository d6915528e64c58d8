package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"fmore/pkg/client"
)

// seenRound is one round_closed event as a subscriber received it.
type seenRound struct {
	at time.Time
	d  digest
}

// roundLog records round_closed events by round and lets a closer wait for
// one. It is shared by the SDK event stream and the in-process
// subscription of the replay.
type roundLog struct {
	mu     sync.Mutex
	seen   map[int]seenRound
	notify chan struct{} // closed and replaced on every event
}

// newRoundLog sizes the log for the rounds a run is expected to close.
func newRoundLog(rounds int) *roundLog {
	return &roundLog{seen: make(map[int]seenRound, rounds), notify: make(chan struct{})}
}

func (l *roundLog) add(round int, s seenRound) {
	l.mu.Lock()
	l.seen[round] = s
	close(l.notify)
	l.notify = make(chan struct{})
	l.mu.Unlock()
}

// wait returns when the round's event arrived, or fails after timeout.
func (l *roundLog) wait(round int, timeout time.Duration) (time.Time, error) {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		l.mu.Lock()
		s, ok := l.seen[round]
		ch := l.notify
		l.mu.Unlock()
		if ok {
			return s.at, nil
		}
		select {
		case <-ch:
		case <-timer.C:
			return time.Time{}, fmt.Errorf("round %d: no round_closed event within %v", round, timeout)
		}
	}
}

func (l *roundLog) snapshot() map[int]seenRound {
	l.mu.Lock()
	defer l.mu.Unlock()
	m := make(map[int]seenRound, len(l.seen))
	for k, v := range l.seen {
		m[k] = v
	}
	return m
}

// watcher follows one job's SSE stream through the SDK.
type watcher struct {
	*roundLog
	done chan struct{}
}

func startWatcher(ctx context.Context, c *client.Client, jobID string, rounds int) (*watcher, error) {
	// The buffer only has to cover the gap between the stream goroutine
	// and this consumer; the consumer does no more than record a time.
	w, err := c.WatchRounds(ctx, jobID, client.WatchOptions{Buffer: 64})
	if err != nil {
		return nil, err
	}
	wa := &watcher{roundLog: newRoundLog(rounds), done: make(chan struct{})}
	go func() {
		defer close(wa.done)
		for ev := range w.Events() {
			if ev.Type == client.RoundClosed && ev.Outcome != nil {
				wa.add(ev.Round, seenRound{at: time.Now(), d: digestServed(*ev.Outcome)})
			}
		}
	}()
	return wa, nil
}
