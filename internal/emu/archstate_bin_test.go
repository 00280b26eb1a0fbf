package emu

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"testing"

	"mssr/internal/randprog"
)

// TestArchStateBinaryRoundTrip is the serialize/restore property test
// behind the checkpoint format: for random programs paused at random
// points, encode -> decode must reproduce the exact architectural state,
// and resuming from the decoded state must finish bit-identically to the
// uninterrupted emulation.
func TestArchStateBinaryRoundTrip(t *testing.T) {
	cfg := randprog.DefaultConfig()
	cfg.MaxDepth = 4
	cfg.MaxStmts = 8
	for seed := int64(0); seed < 10; seed++ {
		p := randprog.Generate(seed, cfg)
		ref := New(p)
		ref.FastForward(1<<40, nil)
		want := ref.Result()
		total := ref.Retired

		for _, cut := range []uint64{0, 1, total / 3, total / 2, total - 1, total} {
			src := New(p)
			src.FastForward(cut, nil)
			st := src.State()
			enc := st.AppendBinary(nil)
			if got := st.EncodedSize(); got != len(enc) {
				t.Fatalf("seed %d cut %d: EncodedSize %d != encoded %d bytes", seed, cut, got, len(enc))
			}
			// Deterministic encoding: equal states encode byte-identically.
			st2 := src.State()
			if enc2 := st2.AppendBinary(nil); string(enc2) != string(enc) {
				t.Fatalf("seed %d cut %d: re-encoding the same state differs", seed, cut)
			}

			var dec ArchState
			if err := DecodeState(enc, &dec); err != nil {
				t.Fatalf("seed %d cut %d: DecodeState: %v", seed, cut, err)
			}
			if dec.PC != st.PC || dec.Retired != st.Retired || dec.Halted != st.Halted || dec.Regs != st.Regs {
				t.Fatalf("seed %d cut %d: decoded scalar state differs", seed, cut)
			}
			if !dec.Mem.Equal(st.Mem) || dec.Mem.Hash() != st.Mem.Hash() {
				t.Fatalf("seed %d cut %d: decoded memory differs", seed, cut)
			}

			resumed := New(p)
			if err := resumed.RestoreBinary(enc); err != nil {
				t.Fatalf("seed %d cut %d: RestoreBinary: %v", seed, cut, err)
			}
			resumed.FastForward(1<<40, nil)
			if got := resumed.Result(); got != want {
				t.Fatalf("seed %d cut %d: resumed run diverged:\n got %+v\nwant %+v", seed, cut, got, want)
			}
		}
	}
}

// TestArchStateBinaryRejectsCorruption: every framing or content fault
// must fail decoding with ErrCorruptState, never decode garbage.
func TestArchStateBinaryRejectsCorruption(t *testing.T) {
	p := randprog.Generate(3, randprog.DefaultConfig())
	e := New(p)
	e.FastForward(500, nil)
	st := e.State()
	st.Mem.Write(1<<32, 1) // a second page, for the page-order case
	enc := st.AppendBinary(nil)

	mutate := func(name string, f func(b []byte) []byte) {
		b := f(append([]byte(nil), enc...))
		var dec ArchState
		if err := DecodeState(b, &dec); !errors.Is(err, ErrCorruptState) {
			t.Errorf("%s: err = %v, want ErrCorruptState", name, err)
		}
	}
	mutate("truncated header", func(b []byte) []byte { return b[:10] })
	mutate("truncated payload", func(b []byte) []byte { return b[:len(b)-9] })
	mutate("bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b })
	mutate("unknown version", func(b []byte) []byte { b[4] = 99; return b })
	mutate("flipped register bit", func(b []byte) []byte { b[40] ^= 1; return b })
	mutate("flipped page word", func(b []byte) []byte { b[len(b)-20] ^= 1; return b })
	mutate("flipped checksum", func(b []byte) []byte { b[len(b)-1] ^= 1; return b })

	// Structural faults behind a valid checksum.
	page := func(b []byte, k int) []byte { return b[stateHeaderBytes+k*statePageBytes:] }
	mutate("page count wraps the length check", func(b []byte) []byte {
		b = append(b[:stateHeaderBytes], make([]byte, stateSumBytes)...)
		binary.LittleEndian.PutUint64(b[stateHeaderBytes-8:], 1<<60)
		return restamp(b)
	})
	mutate("pages out of order", func(b []byte) []byte {
		p0, p1 := binary.LittleEndian.Uint64(page(b, 0)), binary.LittleEndian.Uint64(page(b, 1))
		binary.LittleEndian.PutUint64(page(b, 0), p1)
		binary.LittleEndian.PutUint64(page(b, 1), p0)
		return restamp(b)
	})
	mutate("live beyond page size", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(page(b, 0)[8:], pageWords+1)
		return restamp(b)
	})
	mutate("unknown flag bits", func(b []byte) []byte { b[24] |= 2; return restamp(b) })
}

// restamp recomputes b's FNV trailer in place, so an edit reaches the
// checks behind the checksum.
func restamp(b []byte) []byte {
	h := fnv.New64a()
	h.Write(b[:len(b)-stateSumBytes])
	binary.LittleEndian.PutUint64(b[len(b)-stateSumBytes:], h.Sum64())
	return b
}

// FuzzDecodeState checks the ArchState decoder on arbitrary bytes: it
// never panics, and every input it accepts re-encodes to itself. The
// harness re-stamps the checksum so mutations reach the structural
// checks behind it.
func FuzzDecodeState(f *testing.F) {
	p := randprog.Generate(3, randprog.DefaultConfig())
	for _, n := range []uint64{0, 500, 1 << 40} {
		e := New(p)
		e.FastForward(n, nil)
		st := e.State()
		f.Add(st.AppendBinary(nil))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		b := append([]byte(nil), in...)
		if len(b) >= stateSumBytes {
			restamp(b)
		}
		var st ArchState
		if err := DecodeState(b, &st); err != nil {
			return
		}
		if got := st.AppendBinary(nil); !bytes.Equal(got, b) {
			t.Fatalf("accepted state does not re-encode to itself:\n in %x\nout %x", b, got)
		}
	})
}

// TestRestoreBinarySteadyStateZeroAllocs guards the warm restore path:
// decoding a constant-footprint checkpoint into an emulator whose page
// pool already holds the footprint must not allocate, so checkpoint-warm
// sweeps keep the simulator's allocation discipline.
func TestRestoreBinarySteadyStateZeroAllocs(t *testing.T) {
	p := randprog.Generate(7, randprog.DefaultConfig())
	e := New(p)
	e.FastForward(2000, nil)
	st := e.State()
	enc := st.AppendBinary(nil)

	dst := New(p)
	if err := dst.RestoreBinary(enc); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := dst.RestoreBinary(enc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state RestoreBinary allocates %.1f times per restore", allocs)
	}
}

// BenchmarkArchStateEncode measures checkpoint capture: one encode of a
// mid-run architectural state into a reused buffer.
func BenchmarkArchStateEncode(b *testing.B) {
	p := randprog.Generate(5, randprog.DefaultConfig())
	e := New(p)
	e.FastForward(1<<16, nil)
	st := e.State()
	buf := st.AppendBinary(nil)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = st.AppendBinary(buf[:0])
	}
}

// BenchmarkArchStateRestore measures the emulator-side restore: one
// RestoreBinary into a warm emulator (pooled pages, zero allocations).
func BenchmarkArchStateRestore(b *testing.B) {
	p := randprog.Generate(5, randprog.DefaultConfig())
	e := New(p)
	e.FastForward(1<<16, nil)
	st := e.State()
	enc := st.AppendBinary(nil)
	dst := New(p)
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dst.RestoreBinary(enc); err != nil {
			b.Fatal(err)
		}
	}
}
