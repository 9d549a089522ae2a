package store

import "sync"

// Mem is the in-memory engine: plain maps with the same atomicity
// contract as File. It is the default for tests and non-persistent
// nodes; "durability" lasts exactly as long as the process.
type Mem struct {
	mu     sync.RWMutex
	data   map[string][]byte
	blobs  map[uint64][]byte
	nextBl uint64
	closed bool
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	return &Mem{
		data:  make(map[string][]byte),
		blobs: make(map[uint64][]byte),
	}
}

// Get implements Store.
func (m *Mem) Get(key []byte) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return nil, ErrClosed
	}
	v, ok := m.data[string(key)]
	if !ok {
		return nil, ErrNotFound
	}
	return append([]byte(nil), v...), nil
}

// Has implements Store.
func (m *Mem) Has(key []byte) (bool, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return false, ErrClosed
	}
	_, ok := m.data[string(key)]
	return ok, nil
}

// Iterate implements Store.
func (m *Mem) Iterate(prefix []byte, fn func(key, value []byte) error) error {
	return m.IterateFrom(prefix, nil, fn)
}

// IterateFrom implements the seek fast path: only keys >= start within
// the prefix are collected and visited.
func (m *Mem) IterateFrom(prefix, start []byte, fn func(key, value []byte) error) error {
	m.mu.RLock()
	if m.closed {
		m.mu.RUnlock()
		return ErrClosed
	}
	// Copy the visited pairs so fn may call back into the store.
	pairs := sortedPairs(m.data, prefix, start)
	m.mu.RUnlock()
	for _, kv := range pairs {
		if err := fn(kv[0], kv[1]); err != nil {
			return err
		}
	}
	return nil
}

// Apply implements Store.
func (m *Mem) Apply(b *Batch) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	for _, o := range b.ops {
		if o.delete {
			delete(m.data, string(o.key))
		} else {
			m.data[string(o.key)] = o.value
		}
	}
	return nil
}

// AppendBlock implements Store.
func (m *Mem) AppendBlock(data []byte) (BlockRef, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return BlockRef{}, ErrClosed
	}
	ref := BlockRef{Offset: m.nextBl, Len: uint32(len(data))}
	m.blobs[m.nextBl] = append([]byte(nil), data...)
	m.nextBl += uint64(len(data)) + 1 // +1 keeps offsets unique for empty blobs
	return ref, nil
}

// ReadBlock implements Store.
func (m *Mem) ReadBlock(ref BlockRef) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return nil, ErrClosed
	}
	b, ok := m.blobs[ref.Offset]
	if !ok || uint32(len(b)) != ref.Len {
		return nil, ErrNotFound
	}
	return append([]byte(nil), b...), nil
}

// Flush implements Store (a no-op for memory).
func (m *Mem) Flush() error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return ErrClosed
	}
	return nil
}

// Close implements Store.
func (m *Mem) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}
