// Package pool is a free list for the solver workspaces (simplex, RWA
// scratch, graph search, ticket generator, scenario enumeration) that one
// call hands to the next.
//
// It stands where sync.Pool stood, and differs in the one way that matters
// for a workspace that took a whole solve to grow: whether a Get allocates
// depends only on how many items are out at that moment. sync.Pool keeps a
// private slot per P and empties itself over two collections, so a lone
// goroutine that the scheduler moves to another P, or that sits out two GCs,
// finds the pool empty and regrows a workspace from nothing — on the
// Facebook-scale reaction path that was 40 % of all bytes allocated and moved
// by 2–3 % from one run to the next. Here the same sequence of calls
// allocates the same bytes every time.
//
// The price is that idle items are never given back to the collector: a Free
// keeps as many items as were ever out at once (each Put follows a Get), each
// as large as the largest problem it has served.
package pool

import "sync"

// Free is a last-in first-out free list of *T. The zero value is ready to
// use and hands out new(T) when empty; set New to build items another way.
// It is safe for concurrent use and must not be copied after first use.
type Free[T any] struct {
	New func() *T

	mu   sync.Mutex
	idle []*T
}

// Get returns the item put back most recently, or a new one when none is
// idle.
func (f *Free[T]) Get() *T {
	f.mu.Lock()
	if n := len(f.idle); n > 0 {
		x := f.idle[n-1]
		f.idle[n-1] = nil
		f.idle = f.idle[:n-1]
		f.mu.Unlock()
		return x
	}
	f.mu.Unlock()
	if f.New != nil {
		return f.New()
	}
	return new(T)
}

// Put makes x the next item Get returns. The caller must not use x again.
func (f *Free[T]) Put(x *T) {
	f.mu.Lock()
	f.idle = append(f.idle, x)
	f.mu.Unlock()
}

// Drop forgets every idle item, so the next Get starts from a new one.
func (f *Free[T]) Drop() {
	f.mu.Lock()
	f.idle = nil
	f.mu.Unlock()
}
