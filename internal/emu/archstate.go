package emu

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"

	"mssr/internal/isa"
)

// This file is the checkpoint serialization of ArchState: a versioned,
// checksummed, little-endian binary encoding of the architectural machine
// state (registers plus the paged sparse memory) that internal/ckpt
// stores content-addressed and internal/sim restores instead of
// re-emulating the functional prefix. The format is a persistence
// format — checkpoints written by one process are restored by another —
// so any change must bump stateVersion and is never a harmless refactor.
//
// Layout (all integers little-endian):
//
//	magic   [4]byte  "msrA"
//	version uint32   stateVersion
//	pc      uint64
//	retired uint64
//	flags   uint64   bit 0: halted
//	regs    [NumArchRegs]uint64
//	npages  uint64   count of live (non-zero) pages
//	pages   npages × { pageNum uint64, live uint64, words [pageWords]uint64 }
//	sum     uint64   FNV-1a of every preceding byte
//
// Only pages holding at least one non-zero word are encoded: a page the
// writer allocated but zeroed again reads identically to one never
// allocated, matching Memory.Equal/Hash semantics, so the decoded state
// is execution-equivalent (and digest-identical) to the source.

// stateVersion guards the ArchState binary format; decoders reject
// versions they do not know.
const stateVersion = 1

var stateMagic = [4]byte{'m', 's', 'r', 'A'}

// ErrCorruptState is wrapped by every DecodeState/RestoreBinary failure:
// truncation, bad magic, unknown version or checksum mismatch.
var ErrCorruptState = errors.New("emu: corrupt arch-state encoding")

const (
	stateHeaderBytes = 4 + 4 + 8 + 8 + 8 + isa.NumArchRegs*8 + 8
	statePageBytes   = 8 + 8 + pageWords*8
	stateSumBytes    = 8
)

// EncodedSize returns the exact number of bytes AppendBinary appends for
// the current state.
func (st *ArchState) EncodedSize() int {
	n := 0
	for _, pn := range st.Mem.order {
		if st.Mem.pages[pn].live > 0 {
			n++
		}
	}
	return stateHeaderBytes + n*statePageBytes + stateSumBytes
}

// AppendBinary appends the versioned, checksummed binary encoding of st
// to dst and returns the extended slice. The encoding is deterministic:
// pages are written in ascending page-number order, so equal states
// produce byte-identical encodings (the property that makes checkpoints
// content-addressable).
func (st *ArchState) AppendBinary(dst []byte) []byte {
	base := len(dst)
	need := st.EncodedSize()
	if cap(dst)-base < need {
		grown := make([]byte, base, base+need)
		copy(grown, dst)
		dst = grown
	}
	dst = append(dst, stateMagic[:]...)
	dst = binary.LittleEndian.AppendUint32(dst, stateVersion)
	dst = binary.LittleEndian.AppendUint64(dst, st.PC)
	dst = binary.LittleEndian.AppendUint64(dst, st.Retired)
	var flags uint64
	if st.Halted {
		flags |= 1
	}
	dst = binary.LittleEndian.AppendUint64(dst, flags)
	for _, r := range st.Regs {
		dst = binary.LittleEndian.AppendUint64(dst, r)
	}
	var npages uint64
	for _, pn := range st.Mem.order {
		if st.Mem.pages[pn].live > 0 {
			npages++
		}
	}
	dst = binary.LittleEndian.AppendUint64(dst, npages)
	for _, pn := range st.Mem.order {
		p := st.Mem.pages[pn]
		if p.live == 0 {
			continue
		}
		dst = binary.LittleEndian.AppendUint64(dst, pn)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(p.live))
		for _, w := range p.words {
			dst = binary.LittleEndian.AppendUint64(dst, w)
		}
	}
	h := fnv.New64a()
	h.Write(dst[base:])
	return binary.LittleEndian.AppendUint64(dst, h.Sum64())
}

// verifyState checks framing and checksum, returning the payload region
// (header + pages, checksum stripped) or an ErrCorruptState-wrapped
// failure.
func verifyState(b []byte) ([]byte, error) {
	if len(b) < stateHeaderBytes+stateSumBytes {
		return nil, fmt.Errorf("%w: %d bytes is shorter than a header", ErrCorruptState, len(b))
	}
	if [4]byte(b[:4]) != stateMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorruptState, b[:4])
	}
	if v := binary.LittleEndian.Uint32(b[4:]); v != stateVersion {
		return nil, fmt.Errorf("%w: unknown version %d", ErrCorruptState, v)
	}
	body, tail := b[:len(b)-stateSumBytes], b[len(b)-stateSumBytes:]
	h := fnv.New64a()
	h.Write(body)
	if h.Sum64() != binary.LittleEndian.Uint64(tail) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorruptState)
	}
	if flags := binary.LittleEndian.Uint64(body[24:]); flags&^1 != 0 {
		return nil, fmt.Errorf("%w: unknown flags %#x", ErrCorruptState, flags)
	}
	// Bound npages by the bytes present before multiplying, so a hostile
	// count cannot wrap the length check.
	npages := binary.LittleEndian.Uint64(body[stateHeaderBytes-8:])
	if npages > uint64((len(body)-stateHeaderBytes)/statePageBytes) || len(body) != stateHeaderBytes+int(npages)*statePageBytes {
		return nil, fmt.Errorf("%w: %d pages do not fit %d payload bytes", ErrCorruptState, npages, len(body)-stateHeaderBytes)
	}
	// decodeInto appends pages in order and trusts each live count, so
	// pages must be strictly ascending and live must be the page's exact
	// nonzero-word count (the encoder never writes an all-zero page).
	for k, off := 0, stateHeaderBytes; k < int(npages); k, off = k+1, off+statePageBytes {
		pn := binary.LittleEndian.Uint64(body[off:])
		if k > 0 && pn <= binary.LittleEndian.Uint64(body[off-statePageBytes:]) {
			return nil, fmt.Errorf("%w: page %#x out of order", ErrCorruptState, pn)
		}
		nonzero := 0
		for w := off + 16; w < off+statePageBytes; w += 8 {
			if binary.LittleEndian.Uint64(body[w:]) != 0 {
				nonzero++
			}
		}
		if live := binary.LittleEndian.Uint64(body[off+8:]); nonzero == 0 || live != uint64(nonzero) {
			return nil, fmt.Errorf("%w: page %#x declares %d live words, holds %d", ErrCorruptState, pn, live, nonzero)
		}
	}
	return body, nil
}

// decodeInto installs a verified payload into the given state fields,
// reusing mem's pooled pages (steady-state restores of a constant
// footprint allocate nothing).
func decodeInto(body []byte, regs *[isa.NumArchRegs]uint64, mem *Memory, pc, retired *uint64, halted *bool) {
	*pc = binary.LittleEndian.Uint64(body[8:])
	*retired = binary.LittleEndian.Uint64(body[16:])
	*halted = binary.LittleEndian.Uint64(body[24:])&1 != 0
	off := 32
	for i := range regs {
		regs[i] = binary.LittleEndian.Uint64(body[off:])
		off += 8
	}
	npages := int(binary.LittleEndian.Uint64(body[off:]))
	off += 8
	mem.Clear()
	for k := 0; k < npages; k++ {
		pn := binary.LittleEndian.Uint64(body[off:])
		live := int(binary.LittleEndian.Uint64(body[off+8:]))
		off += 16
		// Pages arrive in ascending order (the encoder walks the sorted
		// page list), so appending keeps mem.order sorted without the
		// binary-search insert of the general write path.
		var p *page
		if n := len(mem.free); n > 0 {
			p = mem.free[n-1]
			mem.free = mem.free[:n-1]
		} else {
			p = new(page)
		}
		for i := range p.words {
			p.words[i] = binary.LittleEndian.Uint64(body[off:])
			off += 8
		}
		p.live = live
		mem.pages[pn] = p
		mem.order = append(mem.order, pn)
		mem.live += live
	}
}

// DecodeState decodes a checkpoint produced by AppendBinary into st,
// verifying framing and checksum first. st.Mem is reused when non-nil
// (its pooled pages absorb the footprint), allocated otherwise.
func DecodeState(b []byte, st *ArchState) error {
	body, err := verifyState(b)
	if err != nil {
		return err
	}
	if st.Mem == nil {
		st.Mem = NewMemory()
	}
	decodeInto(body, &st.Regs, st.Mem, &st.PC, &st.Retired, &st.Halted)
	return nil
}

// RestoreBinary installs a checkpoint produced by AppendBinary directly
// into the emulator — the hot restore path of checkpointed multi-fidelity
// runs. It is equivalent to DecodeState followed by SetState but decodes
// straight into the emulator's registers and pooled memory pages, so a
// steady-state restore performs one pass over the encoding and allocates
// nothing. The loaded program is unchanged; b must describe a point in
// the same program.
func (e *Emulator) RestoreBinary(b []byte) error {
	body, err := verifyState(b)
	if err != nil {
		return err
	}
	decodeInto(body, &e.Regs, e.Mem, &e.PC, &e.Retired, &e.Halted)
	return nil
}
