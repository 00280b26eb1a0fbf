package store_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mssr/internal/api"
	"mssr/internal/obs"
	"mssr/internal/stats"
	"mssr/internal/store"
)

func result(key string, cycles uint64) api.Result {
	return api.Result{
		Index:    -1,
		Key:      key,
		CacheKey: key,
		Source:   api.SourceRun,
		Program:  "prog",
		Engine:   "rgid",
		Cycles:   cycles,
		Retired:  cycles / 2,
		IPC:      0.5,
		MIPS:     1.25,
		Stats:    &stats.Stats{Cycles: cycles, Retired: cycles / 2, L1DHits: 7},
		Intervals: []obs.Interval{
			{Index: 0, Start: 0, End: 4096, IPC: 0.517},
			{Index: 1, Start: 4096, End: 8192, IPC: 0.733},
		},
	}
}

func open(t *testing.T, dir string, maxBytes int64) *store.Store {
	t.Helper()
	s, err := store.Open(dir, maxBytes, nil)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	key := "bfs@s0/rgid-4x64+iv4096"
	want := result(key, 1000)
	s.PutAsync(key, want)
	s.Flush()
	got, ok := s.Get(key)
	if !ok {
		t.Fatal("Get missed a just-stored key")
	}
	wb, _ := json.Marshal(want)
	gb, _ := json.Marshal(got)
	if string(wb) != string(gb) {
		t.Errorf("round trip changed the result:\nput %s\ngot %s", wb, gb)
	}
	if _, ok := s.Get("unknown/none"); ok {
		t.Error("Get hit an unknown key")
	}
	c := s.Counters()
	if c.Hits != 1 || c.Misses != 1 {
		t.Errorf("counters = %+v, want 1 hit, 1 miss", c)
	}
}

func TestSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	keys := []string{"a/none", "b/rgid-4x64", "c/ri-64s4w+check"}
	for i, k := range keys {
		s.PutAsync(k, result(k, uint64(100*(i+1))))
	}
	s.Close()

	s2 := open(t, dir, 0)
	if s2.Len() != len(keys) {
		t.Fatalf("reopened store has %d entries, want %d", s2.Len(), len(keys))
	}
	for i, k := range keys {
		got, ok := s2.Get(k)
		if !ok {
			t.Fatalf("reopened store missed %q", k)
		}
		want := result(k, uint64(100*(i+1)))
		wb, _ := json.Marshal(want)
		gb, _ := json.Marshal(got)
		if string(wb) != string(gb) {
			t.Errorf("%q changed across reopen:\nput %s\ngot %s", k, wb, gb)
		}
	}
	if c := s2.Counters(); c.Corrupt != 0 {
		t.Errorf("clean reopen counted %d corrupt entries", c.Corrupt)
	}
}

// entryFiles returns every stored entry file under dir's two-level
// fanout.
func entryFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*", "*", "*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func TestCorruptEntryIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	key := "mcf/rgid-4x64"
	s.PutAsync(key, result(key, 1000))
	s.Flush()
	files := entryFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("found %d entry files, want 1", len(files))
	}
	// Truncate the file: the next read must treat the entry as a miss,
	// count the corruption and remove the file.
	if err := os.WriteFile(files[0], []byte("msrK"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	c := s.Counters()
	if c.Corrupt != 1 || c.Misses != 1 {
		t.Errorf("counters = %+v, want 1 corrupt, 1 miss", c)
	}
	if _, err := os.Stat(files[0]); !os.IsNotExist(err) {
		t.Error("corrupt entry file not removed")
	}
	// A subsequent put repopulates cleanly.
	s.PutAsync(key, result(key, 1000))
	s.Flush()
	if _, ok := s.Get(key); !ok {
		t.Error("re-put after corruption missed")
	}
}

func TestWriteBehindFlush(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("async%d/none", i)
		s.PutAsync(k, result(k, uint64(i+1)))
	}
	s.Flush()
	if got := s.Len(); got != 20 {
		t.Fatalf("after flush store holds %d entries, want 20", got)
	}
	// Re-queueing an already-stored key is a no-op, not a rewrite.
	before := entryFiles(t, dir)
	s.PutAsync("async0/none", result("async0/none", 999))
	s.Flush()
	got, ok := s.Get("async0/none")
	if !ok || got.Cycles != 1 {
		t.Errorf("PutAsync overwrote an existing entry: %+v", got)
	}
	if after := entryFiles(t, dir); len(after) != len(before) {
		t.Errorf("entry file count changed: %d -> %d", len(before), len(after))
	}
}

// TestLegacyJSONEnvelopesRemoved pins the on-disk migration: result
// files in the retired JSON envelope format are deleted at Open (results
// are recomputable), so they neither serve nor sit outside the bound.
func TestLegacyJSONEnvelopesRemoved(t *testing.T) {
	dir := t.TempDir()
	legacy := filepath.Join(dir, "ab", "cd", "abcd0123.json")
	if err := os.MkdirAll(filepath.Dir(legacy), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(legacy, []byte(`{"version":1,"key":"k","sha256":"00","result":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s := open(t, dir, 0)
	if _, err := os.Stat(legacy); !os.IsNotExist(err) {
		t.Error("legacy JSON envelope not removed at Open")
	}
	if c := s.Counters(); s.Len() != 0 || c.Corrupt != 0 {
		t.Errorf("len %d, counters %+v; want an empty store and no corruption", s.Len(), c)
	}
}
