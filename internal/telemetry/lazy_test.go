package telemetry

import (
	"sync"
	"testing"
)

// TestLazyResolvesOnFirstUse pins the two promises of Lazy and LazyMap:
// the instrument exists in the registry only after the first Get (so the
// exposition is what a lookup at the call site would produce), and every
// Get, concurrent ones included, returns the registry's one handle.
func TestLazyResolvesOnFirstUse(t *testing.T) {
	tel := New(nil)
	var l Lazy[Counter]
	var m LazyMap[int, Counter]
	name := LabeledName("req", "code", "200")
	if _, ok := tel.Snapshot().Counters[name]; ok {
		t.Fatal("counter registered before first use")
	}
	resolves := 0
	resolve := func() *Counter { resolves++; return tel.Counter(name) }
	for i := 0; i < 3; i++ {
		l.Get(resolve).Inc()
	}
	if resolves != 1 {
		t.Fatalf("Lazy resolved %d times, want 1", resolves)
	}
	if got := tel.Snapshot().Counters[name]; got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}

	var wg sync.WaitGroup
	handles := make([]*Counter, 8)
	for i := range handles {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			handles[i] = m.Get(200, func(code int) *Counter { return tel.Counter(name) })
			handles[i].Inc()
		}(i)
	}
	wg.Wait()
	for _, h := range handles {
		if h != tel.Counter(name) {
			t.Fatal("LazyMap returned a handle the registry does not hold")
		}
	}
	if got := tel.Snapshot().Counters[name]; got != 11 {
		t.Fatalf("counter = %d, want 11", got)
	}
}
