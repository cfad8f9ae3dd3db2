package telemetry

import (
	"sync"
	"sync/atomic"
)

// Lazy caches one instrument handle for a hot path: the first Get resolves
// it (label rendering, registry lock) and every later Get is one atomic
// load. The instrument is still created on first use, so it appears in
// snapshots and the exposition exactly when a lookup at the call site
// would have created it. Concurrent first calls may both resolve; the
// registry hands both the same handle. The zero value is ready to use.
type Lazy[T any] struct{ p atomic.Pointer[T] }

// Get returns the cached handle, resolving it with resolve on first use.
func (l *Lazy[T]) Get(resolve func() *T) *T {
	if v := l.p.Load(); v != nil {
		return v
	}
	v := resolve()
	l.p.Store(v)
	return v
}

// LazyMap is a Lazy per key, for an instrument family whose label takes
// few values (status codes, job kinds, read sources). The zero value is
// ready to use.
type LazyMap[K comparable, T any] struct{ m sync.Map }

// Get returns the handle cached for key, resolving it with resolve on
// first use.
func (l *LazyMap[K, T]) Get(key K, resolve func(K) *T) *T {
	if v, ok := l.m.Load(key); ok {
		return v.(*T)
	}
	v, _ := l.m.LoadOrStore(key, resolve(key))
	return v.(*T)
}
