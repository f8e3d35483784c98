// Package freelist recycles large reusable state for the life of the
// process under a byte cap, without a knob.
//
// A list grows only by a Put of a value that Get handed out (or that its
// caller built after a Get found nothing), and Get always takes from the
// list before its caller builds, so no key ever holds more values than
// were in use at once at its peak. Across keys the list holds at most
// capBytes; Put drops a value that would exceed it. The lists are
// explicit rather than a sync.Pool because the garbage collector drains
// a sync.Pool, and the state is then built again on its next use.
package freelist

import "sync"

// List is a byte-capped free list of T values filed under keys K.
type List[K comparable, T any] struct {
	mu       sync.Mutex
	capBytes uint64
	retained uint64
	free     map[K][]entry[T]

	gets, reuses uint64
}

// entry is a free value with the size it was filed at, which is what Get
// gives back to the byte count.
type entry[T any] struct {
	v     T
	bytes uint64
}

// New returns an empty list that retains at most capBytes.
func New[K comparable, T any](capBytes uint64) *List[K, T] {
	return &List[K, T]{capBytes: capBytes, free: map[K][]entry[T]{}}
}

// Get takes the most recently filed value under key, reporting whether
// there was one.
func (l *List[K, T]) Get(key K) (T, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.gets++
	list := l.free[key]
	if len(list) == 0 {
		var zero T
		return zero, false
	}
	e := list[len(list)-1]
	l.free[key] = list[:len(list)-1]
	l.retained -= e.bytes
	l.reuses++
	return e.v, true
}

// Put files v, which holds the given number of bytes, under key, or
// leaves it to the garbage collector when keeping it would exceed the
// cap.
func (l *List[K, T]) Put(key K, v T, bytes uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.retained+bytes > l.capBytes {
		return
	}
	l.retained += bytes
	l.free[key] = append(l.free[key], entry[T]{v, bytes})
}

// Stats reports how many Gets the list served and how many of those
// returned a recycled value.
func (l *List[K, T]) Stats() (gets, reuses uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.gets, l.reuses
}

// Retained reports the bytes the list holds and how many values are
// filed under key.
func (l *List[K, T]) Retained(key K) (bytes uint64, n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.retained, len(l.free[key])
}
