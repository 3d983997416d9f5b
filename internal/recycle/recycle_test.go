package recycle

import (
	"runtime"
	"sync"
	"testing"
	"weak"
)

func newList() *List[[]float64] {
	return &List[[]float64]{New: func() *[]float64 { return new([]float64) }}
}

// TestGetIsLastPutAcrossGoroutines: Get returns what was Put last, whichever
// goroutine put it, then New's buffers once the stack is empty.
func TestGetIsLastPutAcrossGoroutines(t *testing.T) {
	l := newList()
	a, b := new([]float64), new([]float64)
	var wg sync.WaitGroup
	for _, x := range []*[]float64{a, b} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.Put(x)
		}()
		wg.Wait()
	}
	got := make(chan *[]float64, 3)
	go func() {
		for range 3 {
			got <- l.Get()
		}
	}()
	if x := <-got; x != b {
		t.Fatal("the first Get did not return the last Put")
	}
	if x := <-got; x != a {
		t.Fatal("the second Get did not return the first Put")
	}
	if x := <-got; x == a || x == b || x == nil {
		t.Fatal("a Get on an empty stack did not return a new buffer")
	}
}

// TestListHoldsThroughOneCollection: a buffer Put before a collection comes
// back after it, and a Get or Put between two collections keeps the stack
// through the second.
func TestListHoldsThroughOneCollection(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of Puts under -race")
	}
	l := newList()
	a, b := new([]float64), new([]float64)
	l.Put(a)
	runtime.GC()
	l.Put(b)
	runtime.GC()
	if l.Get() != b || l.Get() != a {
		t.Fatal("the stack lost a buffer with a Put between two collections")
	}
}

// TestListLetsGoAfterTwoIdleCollections: two collections with no Get or Put
// between them free everything the stack held, and Get makes a new buffer.
func TestListLetsGoAfterTwoIdleCollections(t *testing.T) {
	l := newList()
	x := new([]float64)
	*x = make([]float64, 1024)
	gone := weak.Make(x)
	l.Put(x)
	x = nil
	runtime.GC()
	runtime.GC()
	if gone.Value() != nil {
		t.Fatal("the buffer is still live after two idle collections")
	}
	if y := l.Get(); y == nil || len(*y) != 0 {
		t.Fatal("Get after the stack was freed did not return a new buffer")
	}
}

// TestGetPutSteadyStateZeroAlloc: taking and returning a buffer allocates
// nothing once the stack exists.
func TestGetPutSteadyStateZeroAlloc(t *testing.T) {
	l := newList()
	l.Put(l.Get())
	if n := testing.AllocsPerRun(1000, func() { l.Put(l.Get()) }); n != 0 {
		t.Fatalf("Get+Put allocated %v times", n)
	}
}

func BenchmarkGetPut(b *testing.B) {
	l := newList()
	for range b.N {
		l.Put(l.Get())
	}
}
