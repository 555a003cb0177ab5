package ledger

import (
	"encoding/json"
	"sync"
	"sync/atomic"
)

// Subscription is one live tap on the ledger's event stream: every event
// emitted after SubscribeJSON is delivered as a JSON line on Events().
// Delivery is strictly non-blocking — a subscriber that cannot keep up
// loses events (counted in Dropped) rather than stalling Emit, which sits
// on the solve hot path. The SSE export plane (internal/obs) is the
// intended consumer.
type Subscription struct {
	ch      chan []byte
	dropped atomic.Int64
	closed  atomic.Bool
	mu      sync.Mutex // orders deliver's send with Close's close of ch
}

// Events is the delivery channel. It is closed by Close (never by the
// ledger), so a draining consumer terminates cleanly.
func (s *Subscription) Events() <-chan []byte { return s.ch }

// Dropped reports how many events were discarded because the subscriber's
// buffer was full.
func (s *Subscription) Dropped() int64 { return s.dropped.Load() }

// Close detaches the subscription and closes its channel. Safe to call
// more than once, and safe concurrently with Emit.
func (s *Subscription) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.CompareAndSwap(false, true) {
		close(s.ch)
	}
}

// deliver offers one marshalled event without blocking.
func (s *Subscription) deliver(line []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return
	}
	select {
	case s.ch <- line:
	default:
		s.dropped.Add(1)
	}
}

// SubscribeJSON attaches a live subscription with the given channel buffer
// (minimum 1). Events already in the ledger are not replayed — use Events()
// for history. Returns nil on a nil ledger.
func (l *Ledger) SubscribeJSON(buf int) *Subscription {
	if l == nil {
		return nil
	}
	if buf < 1 {
		buf = 1
	}
	s := &Subscription{ch: make(chan []byte, buf)}
	l.mu.Lock()
	l.subs = append(l.subs, s)
	l.mu.Unlock()
	return s
}

// unsubscribe removes closed subscriptions (called lazily from Emit).
func (l *Ledger) pruneClosedLocked() {
	kept := l.subs[:0]
	for _, s := range l.subs {
		if !s.closed.Load() {
			kept = append(kept, s)
		}
	}
	for i := len(kept); i < len(l.subs); i++ {
		l.subs[i] = nil
	}
	l.subs = kept
}

// publish marshals ev once and offers it to every live subscriber. Called
// by Emit with the lock held only long enough to copy the subscriber list.
func (l *Ledger) publish(ev *Event, subs []*Subscription) {
	line, err := json.Marshal(ev)
	if err != nil {
		return
	}
	for _, s := range subs {
		s.deliver(line)
	}
}
