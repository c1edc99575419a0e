package store

import (
	"container/heap"
	"strings"
)

// Iterator streams key/value pairs in canonical (bytewise ascending)
// key order, merging memtables and segments across every shard with
// newest-wins resolution for superseded versions of a key. It operates
// on a snapshot taken at creation: concurrent writes and compactions
// neither block it nor appear in it. Close must be called when done.
type Iterator struct {
	h       mergeHeap
	prefix  string
	key     string
	val     []byte
	err     error
	done    bool
	release func()
}

// stream is one sorted source feeding the merge. Higher priority wins
// for duplicate keys (memtable over segments, newer segments over
// older ones).
type stream interface {
	next() (key string, val []byte, ok bool, err error)
}

type heapEntry struct {
	key  string
	val  []byte
	src  stream
	prio int
}

type mergeHeap []heapEntry

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(a, b int) bool {
	if h[a].key != h[b].key {
		return h[a].key < h[b].key
	}
	return h[a].prio > h[b].prio
}
func (h mergeHeap) Swap(a, b int)       { h[a], h[b] = h[b], h[a] }
func (h *mergeHeap) Push(x interface{}) { *h = append(*h, x.(heapEntry)) }
func (h *mergeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// newMergedIterator merges sorted streams; streams[i] has priority i
// (later streams win duplicate keys). release, if non-nil, runs once at
// Close.
func newMergedIterator(streams []stream, prefix string, release func()) *Iterator {
	it := &Iterator{prefix: prefix, release: release}
	for i, s := range streams {
		ps := &prioStream{stream: s, p: i}
		k, v, ok, err := ps.next()
		if err != nil {
			it.err = err
			it.done = true
			return it
		}
		if ok {
			it.h = append(it.h, heapEntry{key: k, val: v, src: ps, prio: i})
		}
	}
	heap.Init(&it.h)
	return it
}

// Next advances to the next key; it returns false at the end of the
// range or on error (check Err).
func (it *Iterator) Next() bool {
	if it.done || it.err != nil {
		return false
	}
	for {
		if it.h.Len() == 0 {
			it.done = true
			return false
		}
		top := heap.Pop(&it.h).(heapEntry)
		key, val := top.key, top.val
		if err := it.refill(top.src); err != nil {
			return false
		}
		// Duplicates of this key in lower-priority sources are
		// superseded: pop and discard them.
		for it.h.Len() > 0 && it.h[0].key == key {
			dup := heap.Pop(&it.h).(heapEntry)
			if err := it.refill(dup.src); err != nil {
				return false
			}
		}
		if it.prefix != "" && !strings.HasPrefix(key, it.prefix) {
			// Sources start at the prefix, so the first key beyond it
			// ends the whole (sorted) range.
			it.done = true
			return false
		}
		it.key, it.val = key, val
		return true
	}
}

func (it *Iterator) refill(s stream) error {
	k, v, ok, err := s.next()
	if err != nil {
		it.err = err
		it.done = true
		return err
	}
	if ok {
		heap.Push(&it.h, heapEntry{key: k, val: v, src: s, prio: it.prio(s)})
	}
	return nil
}

// prio recovers a stream's merge priority from its wrapper.
func (it *Iterator) prio(s stream) int {
	if ps, ok := s.(*prioStream); ok {
		return ps.p
	}
	return 0
}

// prioStream tags a stream with its merge priority.
type prioStream struct {
	stream
	p int
}

// Key returns the current key; valid after Next reports true.
func (it *Iterator) Key() string { return it.key }

// Value returns the current value; the slice is owned by the caller.
func (it *Iterator) Value() []byte { return it.val }

// Err returns the first error the iteration hit, if any.
func (it *Iterator) Err() error { return it.err }

// Close releases the iterator's snapshot. It is safe to call multiple
// times.
func (it *Iterator) Close() {
	it.done = true
	if it.release != nil {
		it.release()
		it.release = nil
	}
}

// memStream iterates a sorted memtable snapshot.
type memStream struct {
	keys []string
	vals [][]byte
	i    int
}

func (m *memStream) next() (string, []byte, bool, error) {
	if m.i >= len(m.keys) {
		return "", nil, false, nil
	}
	k, v := m.keys[m.i], m.vals[m.i]
	m.i++
	return k, v, true, nil
}
