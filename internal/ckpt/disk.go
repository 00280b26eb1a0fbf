package ckpt

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const (
	envelopeVersion = 1
	fileExt         = ".ckpt"
	tmpPattern      = "ckpt-*.tmp"
	// legacyExt marks the JSON result envelopes of the retired result
	// store; Open deletes them (results are recomputable).
	legacyExt = ".json"
)

var envelopeMagic = [4]byte{'m', 's', 'r', 'K'}

// Disk is the store's disk tier: a byte-bounded LRU of blobs, one file
// per key, safe for concurrent use. It is used directly by codecs whose
// callers keep their own decoded memory cache (internal/store), and
// behind a Store's memory tier for checkpoints.
type Disk struct {
	dir string
	log *slog.Logger

	mu  sync.Mutex
	idx lru // entry sizes are file sizes

	hits, misses, evictions, corrupt atomic.Uint64
	dropped, writeErrors             atomic.Uint64

	// qmu serializes write-queue sends against Close, so PutAsync and
	// Flush are safe (and no-ops) on a closed tier.
	qmu       sync.Mutex
	qclosed   bool
	wq        chan writeReq
	writerWG  sync.WaitGroup
	closeOnce sync.Once
}

type writeReq struct {
	key    string
	encode func() ([]byte, error)
	flush  chan struct{} // non-nil: a flush barrier, not a write
}

// OpenDisk loads (or creates) a disk tier rooted at dir, bounded to
// maxBytes of files (<= 0 = unbounded). The index is rebuilt by walking
// the fanout tree: entries failing verification are counted as corrupt
// and removed, stale temp files and legacy JSON result envelopes are
// deleted, and the LRU order is seeded from file mtimes.
func OpenDisk(dir string, maxBytes int64, logger *slog.Logger) (*Disk, error) {
	if dir == "" {
		return nil, errors.New("ckpt: a disk tier needs a directory")
	}
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(127)}))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	d := &Disk{
		dir: dir,
		log: logger,
		idx: newLRU(maxBytes),
		// Deep enough to absorb a sweep's burst of completions while
		// one writer drains it; beyond that writes are dropped, not
		// waited for.
		wq: make(chan writeReq, 256),
	}
	if err := d.load(); err != nil {
		return nil, err
	}
	d.writerWG.Add(1)
	go d.writer()
	return d, nil
}

// load walks the fanout tree and rebuilds the index.
func (d *Disk) load() error {
	type found struct {
		key         string
		size, mtime int64
	}
	var all []found
	legacy := 0
	err := filepath.WalkDir(d.dir, func(path string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return err
		}
		switch {
		case strings.HasSuffix(path, ".tmp"):
			_ = os.Remove(path) // interrupted write; nothing references it
			return nil
		case strings.HasSuffix(path, legacyExt):
			legacy++
			_ = os.Remove(path)
			return nil
		case !strings.HasSuffix(path, fileExt):
			return nil
		}
		b, rerr := os.ReadFile(path)
		var key string
		if rerr == nil {
			key, _, rerr = decodeEnvelope(b)
		}
		if rerr != nil || d.path(key) != path {
			d.corrupt.Add(1)
			d.log.Warn("ckpt: dropping corrupt entry", "path", path, "key", key, "error", fmt.Sprint(rerr))
			_ = os.Remove(path)
			return nil
		}
		info, ierr := de.Info()
		var mtime int64
		if ierr == nil {
			mtime = info.ModTime().UnixNano()
		}
		all = append(all, found{key, int64(len(b)), mtime})
		return nil
	})
	if err != nil {
		return fmt.Errorf("ckpt: indexing %s: %w", d.dir, err)
	}
	if legacy > 0 {
		d.log.Info("ckpt: removed legacy JSON result envelopes", "dir", d.dir, "files", legacy)
	}
	// Oldest first, so the most recently used entries end up at the
	// front of the LRU order.
	sort.Slice(all, func(i, j int) bool { return all[i].mtime < all[j].mtime })
	for _, f := range all {
		d.drop(d.idx.set(f.key, nil, f.size))
	}
	return nil
}

// path maps a key onto its fanout file path.
func (d *Disk) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	h := hex.EncodeToString(sum[:])
	return filepath.Join(d.dir, h[:2], h[2:4], h+fileExt)
}

// encodeEnvelope frames a blob for disk: magic, version, key, FNV-1a
// payload checksum, payload length, payload.
func encodeEnvelope(key string, blob []byte) []byte {
	h := fnv.New64a()
	h.Write(blob)
	b := make([]byte, 0, 4+4+4+len(key)+8+8+len(blob))
	b = append(b, envelopeMagic[:]...)
	b = binary.LittleEndian.AppendUint32(b, envelopeVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(key)))
	b = append(b, key...)
	b = binary.LittleEndian.AppendUint64(b, h.Sum64())
	b = binary.LittleEndian.AppendUint64(b, uint64(len(blob)))
	return append(b, blob...)
}

// decodeEnvelope verifies one file's bytes, returning its key and a
// payload aliasing b.
func decodeEnvelope(b []byte) (string, []byte, error) {
	if len(b) < 4+4+4 {
		return "", nil, fmt.Errorf("truncated envelope (%d bytes)", len(b))
	}
	if [4]byte(b[:4]) != envelopeMagic {
		return "", nil, fmt.Errorf("bad envelope magic %q", b[:4])
	}
	if v := binary.LittleEndian.Uint32(b[4:]); v != envelopeVersion {
		return "", nil, fmt.Errorf("unknown envelope version %d", v)
	}
	// Compare in uint64 so a hostile key length cannot wrap int.
	klen := binary.LittleEndian.Uint32(b[8:])
	if uint64(len(b)) < 12+uint64(klen)+16 {
		return "", nil, fmt.Errorf("truncated envelope key")
	}
	k := 12 + int(klen)
	key := string(b[12:k])
	sum := binary.LittleEndian.Uint64(b[k:])
	plen := binary.LittleEndian.Uint64(b[k+8:])
	blob := b[k+16:]
	if uint64(len(blob)) != plen {
		return key, nil, fmt.Errorf("payload length %d, envelope declares %d", len(blob), plen)
	}
	h := fnv.New64a()
	h.Write(blob)
	if h.Sum64() != sum {
		return key, nil, fmt.Errorf("payload checksum mismatch")
	}
	return key, blob, nil
}

// Get reads and verifies the blob stored under key, or returns
// (nil, false). decode, when non-nil, is the caller's codec: a payload
// it rejects is handled like one failing the envelope check — counted
// as corrupt, logged and deleted, a miss. A file that vanished behind
// the index (an eviction racing this read, or an external delete) is a
// plain miss.
func (d *Disk) Get(key string, decode func([]byte) error) ([]byte, bool) {
	d.mu.Lock()
	el, ok := d.idx.entries[key]
	if ok {
		d.idx.order.MoveToFront(el)
	}
	d.mu.Unlock()
	if !ok {
		d.misses.Add(1)
		return nil, false
	}
	// The read runs outside the lock so concurrent Gets proceed in
	// parallel; a failure re-checks the index before dropping the entry.
	path := d.path(key)
	b, err := os.ReadFile(path)
	var blob []byte
	if err == nil {
		var gotKey string
		if gotKey, blob, err = decodeEnvelope(b); err == nil && gotKey != key {
			err = fmt.Errorf("envelope key %q does not match requested key", gotKey)
		}
	}
	if err == nil && decode != nil {
		err = decode(blob)
	}
	if err != nil {
		vanished := errors.Is(err, fs.ErrNotExist)
		d.mu.Lock()
		// Only drop the entry looked up above: a writer may have
		// re-installed the key since, and its file must survive.
		if cur, ok := d.idx.entries[key]; ok && cur == el {
			d.idx.remove(el)
			if !vanished {
				_ = os.Remove(path)
			}
		}
		d.mu.Unlock()
		d.misses.Add(1)
		if !vanished {
			d.corrupt.Add(1)
			d.log.Warn("ckpt: corrupt entry read", "dir", d.dir, "key", key, "error", err.Error())
		}
		return nil, false
	}
	d.hits.Add(1)
	// Persist the recency so a restart's mtime-seeded LRU order stays
	// close to the live one. Best-effort: a failure only skews eviction.
	now := time.Now()
	_ = os.Chtimes(path, now, now)
	return blob, true
}

// Contains reports whether key is on disk, without touching recency or
// counters.
func (d *Disk) Contains(key string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.idx.entries[key]
	return ok
}

// PutAsync queues a write-behind persist of the blob encode returns.
// encode runs on the writer goroutine, so an expensive encoding never
// delays the caller, and an encode error counts as a write error. Keys
// already on disk are skipped (content-addressed blobs are
// deterministic per key, so a rewrite is pure churn); a full queue or a
// closed tier drops the write and counts it rather than blocking.
func (d *Disk) PutAsync(key string, encode func() ([]byte, error)) {
	if d.Contains(key) {
		return
	}
	d.qmu.Lock()
	defer d.qmu.Unlock()
	if d.qclosed {
		d.dropped.Add(1)
		return
	}
	select {
	case d.wq <- writeReq{key: key, encode: encode}:
	default:
		d.dropped.Add(1)
	}
}

// write performs one durable write: encode, envelope, temp file, rename.
func (d *Disk) write(key string, encode func() ([]byte, error)) error {
	blob, err := encode()
	if err != nil {
		return err
	}
	path := d.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b := encodeEnvelope(key, blob)
	// Write-temp-then-rename in the destination directory keeps the
	// replacement atomic on POSIX filesystems.
	tmp, err := os.CreateTemp(filepath.Dir(path), tmpPattern)
	if err != nil {
		return err
	}
	_, err = tmp.Write(b)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		_ = os.Remove(tmp.Name())
		return err
	}
	d.mu.Lock()
	evicted := d.idx.set(key, nil, int64(len(b)))
	d.mu.Unlock()
	d.drop(evicted)
	return nil
}

// drop deletes the files of entries the size bound evicted.
func (d *Disk) drop(evicted []*entry) {
	for _, e := range evicted {
		_ = os.Remove(d.path(e.key))
		d.evictions.Add(1)
	}
}

// writer is the single write-behind goroutine: it drains PutAsync
// requests and flush barriers until Close.
func (d *Disk) writer() {
	defer d.writerWG.Done()
	for req := range d.wq {
		if req.flush != nil {
			close(req.flush)
			continue
		}
		if err := d.write(req.key, req.encode); err != nil {
			d.writeErrors.Add(1)
			d.log.Warn("ckpt: write-behind failed", "dir", d.dir, "key", req.key, "error", err.Error())
		}
	}
}

// Flush blocks until every PutAsync accepted before the call has been
// written. A no-op on a closed tier (Close already flushed).
func (d *Disk) Flush() {
	done := make(chan struct{})
	d.qmu.Lock()
	if d.qclosed {
		d.qmu.Unlock()
		return
	}
	d.wq <- writeReq{flush: done}
	d.qmu.Unlock()
	<-done
}

// Close flushes the write-behind queue and stops the writer. Further
// PutAsync and Flush calls are no-ops; Get keeps serving.
func (d *Disk) Close() {
	d.closeOnce.Do(func() {
		d.Flush()
		d.qmu.Lock()
		d.qclosed = true
		close(d.wq)
		d.qmu.Unlock()
		d.writerWG.Wait()
	})
}

// Len returns the number of entries on disk.
func (d *Disk) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.idx.order.Len()
}

// Size returns the total bytes of the entry files on disk.
func (d *Disk) Size() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.idx.size
}

// Counters snapshots the tier's activity counters (the byte totals
// are a Store's and stay zero here).
func (d *Disk) Counters() Counters {
	return Counters{
		Hits:        d.hits.Load(),
		Misses:      d.misses.Load(),
		Evictions:   d.evictions.Load(),
		Corrupt:     d.corrupt.Load(),
		Dropped:     d.dropped.Load(),
		WriteErrors: d.writeErrors.Load(),
	}
}
