package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func blob(seed byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i)
	}
	return b
}

func TestMemoryRoundTrip(t *testing.T) {
	s := NewMemory(-1)
	if _, ok := s.Get("missing"); ok {
		t.Fatal("Get on empty store reported a hit")
	}
	want := blob(1, 100)
	s.Put("k1", want)
	got, ok := s.Get("k1")
	if !ok || string(got) != string(want) {
		t.Fatalf("Get after Put: ok=%v blob mismatch=%v", ok, string(got) != string(want))
	}
	if !s.Contains("k1") || s.Contains("k2") {
		t.Fatal("Contains wrong")
	}
	if s.Len() != 1 || s.Size() != 100 {
		t.Fatalf("Len=%d Size=%d, want 1/100", s.Len(), s.Size())
	}
	c := s.Counters()
	if c.Hits != 1 || c.Misses != 1 || c.BytesRead != 100 || c.BytesWritten != 100 {
		t.Fatalf("counters %+v", c)
	}
	// Overwrite with a different size adjusts accounting.
	s.Put("k1", blob(2, 40))
	if s.Len() != 1 || s.Size() != 40 {
		t.Fatalf("after overwrite Len=%d Size=%d, want 1/40", s.Len(), s.Size())
	}
}

func TestMemoryLRUEviction(t *testing.T) {
	s := NewMemory(250) // room for two 100-byte blobs, not three
	s.Put("a", blob(1, 100))
	s.Put("b", blob(2, 100))
	s.Get("a") // make "b" the LRU
	s.Put("c", blob(3, 100))
	if s.Contains("b") {
		t.Fatal("LRU entry b survived eviction")
	}
	if !s.Contains("a") || !s.Contains("c") {
		t.Fatal("recently used entries evicted")
	}
	if got := s.Counters().Evictions; got != 1 {
		t.Fatalf("Evictions = %d, want 1", got)
	}
	// A blob larger than the bound is still kept (never evict the entry
	// just inserted), everything else goes.
	s.Put("huge", blob(4, 400))
	if !s.Contains("huge") {
		t.Fatal("oversized insert was evicted immediately")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after oversized insert, want 1", s.Len())
	}
}

func TestDiskPersistAndReload(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, -1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 20)
	for i := range keys {
		keys[i] = fmt.Sprintf("mcf@s2+ff4505+dw287#%d", i)
		s.Put(keys[i], blob(byte(i), 64+i))
	}
	s.Close()
	if got := s.DiskLen(); got != 20 {
		t.Fatalf("DiskLen after Close = %d, want 20", got)
	}

	// A fresh store over the same directory serves every blob (warm
	// restart), promoting disk hits into memory.
	s2, err := Open(dir, -1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.DiskLen(); got != 20 {
		t.Fatalf("reloaded DiskLen = %d, want 20", got)
	}
	if s2.Len() != 0 {
		t.Fatalf("reloaded memory tier holds %d entries, want 0", s2.Len())
	}
	for i, k := range keys {
		got, ok := s2.Get(k)
		if !ok || string(got) != string(blob(byte(i), 64+i)) {
			t.Fatalf("reloaded Get(%q): ok=%v", k, ok)
		}
	}
	if s2.Len() != 20 {
		t.Fatalf("disk hits not promoted: memory Len = %d", s2.Len())
	}
	c := s2.Counters()
	if c.Hits != 20 || c.Misses != 0 || c.Corrupt != 0 {
		t.Fatalf("reloaded counters %+v", c)
	}
}

func TestDiskCorruptionDropped(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, -1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("good", blob(1, 64))
	s.Put("bad", blob(2, 64))
	s.Close()

	// Flip a payload byte in "bad"'s file.
	var badPath string
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasSuffix(path, fileExt) {
			if b, e := os.ReadFile(path); e == nil {
				if _, blob, e := decodeEnvelope(b); e == nil && blob[0] == 2 {
					badPath = path
				}
			}
		}
		return nil
	})
	if badPath == "" {
		t.Fatal("could not locate bad's checkpoint file")
	}
	b, err := os.ReadFile(badPath)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(badPath, b, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, -1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Counters().Corrupt; got != 1 {
		t.Fatalf("Corrupt = %d after reload over tampered file, want 1", got)
	}
	if s2.Contains("bad") {
		t.Fatal("corrupt entry still indexed")
	}
	if _, err := os.Stat(badPath); !os.IsNotExist(err) {
		t.Fatal("corrupt file not removed")
	}
	if _, ok := s2.Get("good"); !ok {
		t.Fatal("intact entry lost")
	}
}

func TestDiskBoundEvicts(t *testing.T) {
	dir := t.TempDir()
	// Envelope overhead is ~90 bytes on top of each 100-byte blob; a
	// 450-byte bound keeps about two entries.
	s, err := Open(dir, -1, 450, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 5; i++ {
		s.Put(fmt.Sprintf("k%d", i), blob(byte(i), 100))
	}
	s.Flush()
	if got := s.DiskSize(); got > 450 {
		t.Fatalf("DiskSize = %d exceeds 450-byte bound", got)
	}
	if s.DiskLen() >= 5 {
		t.Fatalf("DiskLen = %d, expected evictions", s.DiskLen())
	}
	if s.Counters().Evictions == 0 {
		t.Fatal("no evictions counted")
	}
	// Evicted files are really gone.
	n := 0
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasSuffix(path, fileExt) {
			n++
		}
		return nil
	})
	if n != s.DiskLen() {
		t.Fatalf("%d files on disk, index holds %d", n, s.DiskLen())
	}
}

func TestFlushBarrier(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, -1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 50; i++ {
		s.Put(fmt.Sprintf("k%d", i), blob(byte(i), 32))
	}
	s.Flush()
	if got := s.DiskLen(); got != 50 {
		t.Fatalf("DiskLen = %d after Flush, want 50", got)
	}
}

func TestCloseIdempotentAndGetAfterClose(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, -1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("k", blob(9, 16))
	s.Close()
	s.Close()
	s.Flush() // no-op, must not hang
	if _, ok := s.Get("k"); !ok {
		t.Fatal("Get after Close lost the entry")
	}
	s.Put("late", blob(1, 16)) // memory insert still works, persist dropped
	if _, ok := s.Get("late"); !ok {
		t.Fatal("post-Close Put not visible in memory tier")
	}
	if s.Counters().Dropped == 0 {
		t.Fatal("post-Close Put persist not counted as dropped")
	}
}

func TestConcurrentAccess(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 1<<20, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("g%d-k%d", g, i%20)
				s.Put(k, blob(byte(g), 64))
				if got, ok := s.Get(k); ok && got[0] != byte(g) {
					t.Errorf("cross-goroutine blob under %q", k)
				}
				s.Contains(k)
			}
		}(g)
	}
	wg.Wait()
	s.Flush()
}

// TestGetZeroCopy pins the warm-restore property: a memory-tier Get
// must not copy the blob.
func TestGetZeroCopy(t *testing.T) {
	s := NewMemory(-1)
	s.Put("k", blob(1, 1<<16))
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := s.Get("k"); !ok {
			t.Fatal("miss")
		}
	})
	if allocs != 0 {
		t.Errorf("memory-tier Get allocates %.1f times", allocs)
	}
}

func openDisk(t *testing.T, dir string, maxBytes int64) *Disk {
	t.Helper()
	d, err := OpenDisk(dir, maxBytes, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

// put persists b under key and waits for the write.
func put(d *Disk, key string, b []byte) {
	d.PutAsync(key, func() ([]byte, error) { return b, nil })
	d.Flush()
}

// TestSizeBoundEvictsLRU pins eviction order, not just counts: the disk
// bound drops the least recently used entries, and a Get refreshes
// recency so a touched entry outlives older untouched ones.
func TestSizeBoundEvictsLRU(t *testing.T) {
	per := int64(len(encodeEnvelope("wl0", blob(0, 100))))
	d := openDisk(t, t.TempDir(), 3*per+per/2)
	var keys []string
	for i := 0; i < 5; i++ {
		k := fmt.Sprintf("wl%d", i)
		keys = append(keys, k)
		put(d, k, blob(byte(i), 100))
	}
	if got := d.Len(); got != 3 {
		t.Fatalf("tier holds %d entries, want 3 under the size bound", got)
	}
	if c := d.Counters(); c.Evictions != 2 {
		t.Errorf("evictions = %d, want 2", c.Evictions)
	}
	for _, k := range keys[:2] {
		if d.Contains(k) {
			t.Errorf("oldest entry %q survived eviction", k)
		}
	}
	for _, k := range keys[2:] {
		if !d.Contains(k) {
			t.Errorf("recent entry %q evicted", k)
		}
	}
	// Touching the LRU tail protects it from the next eviction.
	if _, ok := d.Get(keys[2], nil); !ok {
		t.Fatal("expected hit")
	}
	put(d, "wlx", blob(9, 100))
	if !d.Contains(keys[2]) {
		t.Error("recently-used entry evicted ahead of older ones")
	}
	if d.Contains(keys[3]) {
		t.Error("LRU entry survived eviction after a newer entry was touched")
	}
}

// TestReopenPreservesRecencyOrder pins the mtime-seeded LRU order: a
// reopened tier with a tighter bound evicts the oldest entry.
func TestReopenPreservesRecencyOrder(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, 0)
	for i := 0; i < 3; i++ {
		put(d, fmt.Sprintf("r%d", i), blob(byte(i), 100))
		// File mtimes seed the reopened LRU order; keep them distinct
		// even on coarse-mtime filesystems.
		time.Sleep(5 * time.Millisecond)
	}
	per := d.Size() / 3
	d.Close()

	d2 := openDisk(t, dir, 2*per+per/2)
	if d2.Len() != 2 {
		t.Fatalf("reopened bounded tier holds %d entries, want 2", d2.Len())
	}
	if d2.Contains("r0") {
		t.Error("oldest entry survived the reopen bound")
	}
	for _, k := range []string{"r1", "r2"} {
		if !d2.Contains(k) {
			t.Errorf("recent entry %q lost at reopen", k)
		}
	}
}

// TestVanishedFileIsAMiss: a file deleted behind the index (a racing
// eviction or an external delete) is a plain miss, not corruption, and
// the stale index entry no longer blocks a re-put.
func TestVanishedFileIsAMiss(t *testing.T) {
	d := openDisk(t, t.TempDir(), 0)
	put(d, "k", blob(1, 64))
	if err := os.Remove(d.path("k")); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get("k", nil); ok {
		t.Fatal("vanished entry served as a hit")
	}
	if c := d.Counters(); c.Corrupt != 0 || c.Misses != 1 {
		t.Errorf("counters = %+v, want 0 corrupt, 1 miss", c)
	}
	put(d, "k", blob(1, 64))
	if _, ok := d.Get("k", nil); !ok {
		t.Error("re-put after the file vanished missed")
	}
}

// TestCodecRejectionIsCorrupt: a payload that passes the envelope check
// but that the caller's codec rejects is dropped like a corrupt file.
func TestCodecRejectionIsCorrupt(t *testing.T) {
	d := openDisk(t, t.TempDir(), 0)
	put(d, "k", blob(1, 64))
	if _, ok := d.Get("k", func([]byte) error { return errors.New("undecodable") }); ok {
		t.Fatal("rejected payload served as a hit")
	}
	if c := d.Counters(); c.Corrupt != 1 || c.Misses != 1 || d.Contains("k") {
		t.Errorf("counters = %+v, contains = %v; want 1 corrupt, 1 miss, entry dropped", c, d.Contains("k"))
	}
	if _, err := os.Stat(d.path("k")); !os.IsNotExist(err) {
		t.Error("rejected entry file not removed")
	}
}

// FuzzEnvelope checks the disk envelope decoder on arbitrary bytes: it
// never panics, and every input it accepts re-encodes to itself. The
// harness re-stamps the payload checksum so mutations reach the fields
// behind it.
func FuzzEnvelope(f *testing.F) {
	f.Add(encodeEnvelope("mcf@s2+ff4505+dw287#3", blob(1, 64)))
	f.Add(encodeEnvelope("bfs@s0/rgid-4x64+iv4096", []byte(`{"index":-1,"cycles":1000}`)))
	f.Add(encodeEnvelope("", nil))
	f.Fuzz(func(t *testing.T, in []byte) {
		b := append([]byte(nil), in...)
		if len(b) >= 12 {
			if k := 12 + uint64(binary.LittleEndian.Uint32(b[8:])); uint64(len(b)) >= k+16 {
				h := fnv.New64a()
				h.Write(b[k+16:])
				binary.LittleEndian.PutUint64(b[k:], h.Sum64())
			}
		}
		key, payload, err := decodeEnvelope(b)
		if err != nil {
			return
		}
		if got := encodeEnvelope(key, payload); !bytes.Equal(got, b) {
			t.Fatalf("accepted envelope does not re-encode to itself:\n in %x\nout %x", b, got)
		}
	})
}
