// Package recycle keeps buffers that outlive the run that grew them, so that
// the next run reuses them, without keeping them live once runs stop.
package recycle

import (
	"sync"
	"weak"
)

// A List is a stack of spare buffers shared by every goroutine. Get returns
// the buffer Put last, whichever goroutine or processor put it there, so a
// caller that takes and returns its buffers in a fixed order gets the same
// buffers back, and allocates the same bytes, on every run. (A sync.Pool
// keeps one buffer per processor out of the others' reach, so what a run
// finds in it depends on where the scheduler happened to run it.)
//
// Like a sync.Pool, a List keeps nothing live through two garbage
// collections with no Get or Put between them: the stack is reachable only
// through a weak pointer and from a sync.Pool, which drops what it holds at
// the second collection after taking it, and every Get and Put hands the
// stack to that sync.Pool again.
//
// A List must not be copied after first use.
type List[T any] struct {
	// New makes a buffer when the stack is empty.
	New func() *T

	mu    sync.Mutex
	stack weak.Pointer[[]*T]
	hold  sync.Pool // the stack's strong references
}

// Get pops the last buffer Put, or returns New() if there is none.
func (l *List[T]) Get() *T {
	l.mu.Lock()
	s := l.held()
	var x *T
	if n := len(*s); n > 0 {
		x = (*s)[n-1]
		(*s)[n-1] = nil
		*s = (*s)[:n-1]
	}
	l.mu.Unlock()
	if x == nil {
		x = l.New()
	}
	return x
}

// Put pushes x for a later Get.
func (l *List[T]) Put(x *T) {
	l.mu.Lock()
	s := l.held()
	*s = append(*s, x)
	l.mu.Unlock()
}

// held returns the stack, making an empty one if a collection freed it, and
// moves its strong reference to the front of l.hold, where it outlives the
// next collection and not the one after. l.hold.Get takes the reference this processor put
// there or one a collection set aside, so l.hold keeps at most one per
// processor. l.mu must be held.
func (l *List[T]) held() *[]*T {
	s := l.stack.Value()
	if s == nil {
		s = new([]*T)
		l.stack = weak.Make(s)
	}
	l.hold.Get()
	l.hold.Put(s)
	return s
}
