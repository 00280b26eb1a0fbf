// Package store is msrd's persistent content-addressed result store:
// a disk-backed map from a spec's canonical key (sim.Spec.CanonicalKey)
// to its completed wire result, so warm-sweep speedups survive daemon
// restarts and cached simulations become durable, shareable artifacts.
//
// It is a JSON codec over internal/ckpt's disk tier, which owns the
// layout, the checksummed envelope, the size-bounded LRU that survives
// restarts, corruption handling and the write-behind writer. There is
// no memory tier here: the serving layer's decoded result cache is one.
package store

import (
	"encoding/json"
	"log/slog"

	"mssr/internal/api"
	"mssr/internal/ckpt"
)

// Counters is a snapshot of the store's activity counters. A result
// that verifies on disk but does not decode counts as both a miss and a
// corruption.
type Counters = ckpt.Counters

// Store is a disk-backed content-addressed result store. All methods are
// safe for concurrent use.
type Store struct {
	disk *ckpt.Disk
}

// Open loads (or creates) a store rooted at dir, bounded to maxBytes of
// result files on disk (<= 0 = unbounded). See ckpt.OpenDisk for how the
// index is rebuilt and what is cleaned up.
func Open(dir string, maxBytes int64, logger *slog.Logger) (*Store, error) {
	d, err := ckpt.OpenDisk(dir, maxBytes, logger)
	if err != nil {
		return nil, err
	}
	return &Store{disk: d}, nil
}

// Get returns the stored result for the canonical key. A verification
// or decode failure is treated as a miss: counted as corrupt, logged at
// warn with the offending key, and the entry removed.
func (s *Store) Get(key string) (api.Result, bool) {
	var res api.Result
	if _, ok := s.disk.Get(key, func(b []byte) error { return json.Unmarshal(b, &res) }); !ok {
		return api.Result{}, false
	}
	return res, true
}

// PutAsync queues a write-behind store of the result; it is encoded on
// the writer goroutine. Results already on disk are skipped (a key's
// result is deterministic, so rewriting is pointless); a full queue
// drops the write and counts it rather than blocking the caller.
func (s *Store) PutAsync(key string, res api.Result) {
	s.disk.PutAsync(key, func() ([]byte, error) { return json.Marshal(res) })
}

// Flush blocks until every PutAsync accepted before the call has been
// written. A no-op on a closed store (Close already flushed).
func (s *Store) Flush() { s.disk.Flush() }

// Close flushes the write-behind queue and stops the writer. Further
// PutAsync/Flush calls are no-ops.
func (s *Store) Close() { s.disk.Close() }

// Len returns the number of stored results.
func (s *Store) Len() int { return s.disk.Len() }

// Size returns the total bytes of stored result files.
func (s *Store) Size() int64 { return s.disk.Size() }

// Counters snapshots the activity counters.
func (s *Store) Counters() Counters { return s.disk.Counters() }
