// Package ckpt is the module's content-addressed blob store: a bounded
// in-memory tier (Store), optionally backed by a disk tier (Disk),
// mapping string keys to immutable byte blobs. It holds checkpoints —
// a spec's sim.Spec.CheckpointKey plus a sample-period suffix mapped to
// a serialized architectural state (emu.ArchState.AppendBinary) or a
// phase profile, so any sweep over the same program and fidelity
// geometry restores a boundary in O(state) instead of re-emulating
// O(instructions) of functional prefix — and, through internal/store's
// JSON codec over a bare Disk, completed results.
//
// The memory tier is an LRU bounded by total blob bytes; Get returns the
// stored slice without copying (blobs are immutable by contract — the
// emu encoding is consumed read-only). The disk tier stores each blob in
// its own file under a two-level fanout of the key's SHA-256, written
// temp-file-then-rename so readers never observe a partial write,
// framed in a self-describing envelope (magic, version, key, FNV-1a
// payload checksum) so opening a directory rebuilds the index without a
// manifest and any corruption is counted, logged and deleted rather
// than served. Writes go through a bounded write-behind queue drained by
// a single writer goroutine: persisting a blob never blocks a
// simulation, and a full queue drops the write (counted) instead of
// stalling.
package ckpt

import (
	"container/list"
	"log/slog"
	"sync"
	"sync/atomic"
)

// DefaultMemBytes bounds the in-memory tier when the caller passes 0:
// enough for the checkpoint sets of several standard-scale sweeps.
const DefaultMemBytes = 256 << 20

// Counters is a snapshot of a store's activity counters.
type Counters struct {
	// Hits and Misses count Get outcomes (for a Store, across both
	// tiers: a disk hit promoted to memory is one hit).
	Hits, Misses uint64
	// BytesRead and BytesWritten total the blob bytes a Store served by
	// Get and accepted by Put.
	BytesRead, BytesWritten uint64
	// Evictions counts blobs dropped by either tier's size bound.
	Evictions uint64
	// Corrupt counts disk entries dropped because they failed
	// verification (at open or at read time).
	Corrupt uint64
	// Dropped counts write-behind persists discarded because the queue
	// was full or the store closed.
	Dropped uint64
	// WriteErrors counts disk write failures (disk full, permissions).
	WriteErrors uint64
}

type entry struct {
	key  string
	blob []byte // nil in the disk tier
	size int64
}

// lru is the recency index both tiers keep, bounded by total entry
// size (max <= 0 = unbounded). The owning tier holds its lock.
type lru struct {
	max     int64
	order   *list.List // front = most recently used; values are *entry
	entries map[string]*list.Element
	size    int64
}

func newLRU(max int64) lru {
	return lru{max: max, order: list.New(), entries: make(map[string]*list.Element)}
}

// set installs or refreshes key as the most recent entry, then evicts
// least-recently-used entries until the bound holds, never key itself.
func (l *lru) set(key string, blob []byte, size int64) (evicted []*entry) {
	el, ok := l.entries[key]
	if ok {
		e := el.Value.(*entry)
		l.size += size - e.size
		e.blob, e.size = blob, size
		l.order.MoveToFront(el)
	} else {
		el = l.order.PushFront(&entry{key: key, blob: blob, size: size})
		l.entries[key] = el
		l.size += size
	}
	for l.max > 0 && l.size > l.max && l.order.Back() != el {
		evicted = append(evicted, l.remove(l.order.Back()))
	}
	return evicted
}

func (l *lru) remove(el *list.Element) *entry {
	e := l.order.Remove(el).(*entry)
	delete(l.entries, e.key)
	l.size -= e.size
	return e
}

// Store is a bounded checkpoint blob store, safe for concurrent use.
type Store struct {
	disk *Disk // nil = memory-only

	mu  sync.Mutex
	mem lru

	hits, misses, evictions atomic.Uint64
	bytesRead, bytesWritten atomic.Uint64
}

// NewMemory returns a memory-only store bounded to maxBytes of blobs
// (0 = DefaultMemBytes, < 0 = unbounded).
func NewMemory(maxBytes int64) *Store {
	if maxBytes == 0 {
		maxBytes = DefaultMemBytes
	}
	return &Store{mem: newLRU(maxBytes)}
}

// Open loads (or creates) a disk-backed store rooted at dir, holding up
// to memBytes of blobs in memory (0 = DefaultMemBytes, < 0 = unbounded)
// and diskBytes on disk (<= 0 = unbounded); see OpenDisk.
func Open(dir string, memBytes, diskBytes int64, logger *slog.Logger) (*Store, error) {
	d, err := OpenDisk(dir, diskBytes, logger)
	if err != nil {
		return nil, err
	}
	s := NewMemory(memBytes)
	s.disk = d
	return s, nil
}

// Get returns the blob stored under key, or (nil, false). The returned
// slice is the store's copy and must be treated as read-only. A disk hit
// is promoted into the memory tier.
func (s *Store) Get(key string) ([]byte, bool) {
	var blob []byte
	s.mu.Lock()
	el, ok := s.mem.entries[key]
	if ok {
		s.mem.order.MoveToFront(el)
		blob = el.Value.(*entry).blob
	}
	s.mu.Unlock()
	if !ok && s.disk != nil {
		if blob, ok = s.disk.Get(key, nil); ok {
			s.insert(key, blob)
		}
	}
	if !ok {
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	s.bytesRead.Add(uint64(len(blob)))
	return blob, true
}

// Contains reports whether key is present in either tier, without
// touching recency or counters.
func (s *Store) Contains(key string) bool {
	s.mu.Lock()
	_, ok := s.mem.entries[key]
	s.mu.Unlock()
	return ok || (s.disk != nil && s.disk.Contains(key))
}

// Put stores blob under key in the memory tier and, when a disk tier
// exists, queues a write-behind persist. The store keeps the slice:
// the caller must not mutate it afterwards (checkpoint captures hand
// over a freshly encoded buffer).
func (s *Store) Put(key string, blob []byte) {
	s.insert(key, blob)
	s.bytesWritten.Add(uint64(len(blob)))
	if s.disk != nil {
		s.disk.PutAsync(key, func() ([]byte, error) { return blob, nil })
	}
}

func (s *Store) insert(key string, blob []byte) {
	s.mu.Lock()
	evicted := s.mem.set(key, blob, int64(len(blob)))
	s.mu.Unlock()
	s.evictions.Add(uint64(len(evicted)))
}

// Flush blocks until every Put accepted before the call has been
// written to disk. A no-op on a memory-only or closed store.
func (s *Store) Flush() {
	if s.disk != nil {
		s.disk.Flush()
	}
}

// Close flushes the write-behind queue and stops the writer. Further
// Put persists and Flushes are no-ops; Get keeps serving both tiers.
func (s *Store) Close() {
	if s.disk != nil {
		s.disk.Close()
	}
}

// Len returns the number of memory-resident checkpoints.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mem.order.Len()
}

// Size returns the total bytes of memory-resident checkpoints.
func (s *Store) Size() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mem.size
}

// DiskLen returns the number of checkpoints on disk (0 when
// memory-only).
func (s *Store) DiskLen() int {
	if s.disk == nil {
		return 0
	}
	return s.disk.Len()
}

// DiskSize returns the total bytes of checkpoint files on disk.
func (s *Store) DiskSize() int64 {
	if s.disk == nil {
		return 0
	}
	return s.disk.Size()
}

// Counters snapshots the activity counters across both tiers.
func (s *Store) Counters() Counters {
	c := Counters{
		Hits:         s.hits.Load(),
		Misses:       s.misses.Load(),
		BytesRead:    s.bytesRead.Load(),
		BytesWritten: s.bytesWritten.Load(),
		Evictions:    s.evictions.Load(),
	}
	if s.disk != nil {
		dc := s.disk.Counters()
		c.Evictions += dc.Evictions
		c.Corrupt, c.Dropped, c.WriteErrors = dc.Corrupt, dc.Dropped, dc.WriteErrors
	}
	return c
}
