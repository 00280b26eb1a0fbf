package emu

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"mssr/internal/isa"
	"mssr/internal/workloads"
)

// refStep executes one instruction the way the timing core defines it:
// isa.Evaluate on the operand values, with a load's Result replaced by
// the loaded word. It is the independent reference the interpreter loop
// is checked against.
func refStep(regs *[isa.NumArchRegs]uint64, mem *Memory, in isa.Instruction, pc uint64) StepInfo {
	var rs1v, rs2v uint64
	switch in.NumSources() {
	case 2:
		rs2v = regs[in.Rs2]
		fallthrough
	case 1:
		rs1v = regs[in.Rs1]
	}
	out := isa.Evaluate(in, pc, rs1v, rs2v)
	switch {
	case in.IsLoad():
		out.Result = mem.Read(out.MemAddr)
	case in.IsStore():
		mem.Write(out.MemAddr, out.Result)
	}
	if in.HasDest() {
		regs[in.Rd] = out.Result
	}
	next := pc + isa.InstrBytes
	switch {
	case out.Halt:
		next = pc
	case out.Taken:
		next = out.Target
	}
	return StepInfo{PC: pc, Instr: in, Outcome: out, NextPC: next}
}

// digestInfo folds every field of one StepInfo into h.
func digestInfo(h hash.Hash64, si *StepInfo) {
	var buf [8 * 9]byte
	flags := uint64(si.Instr.Op) | uint64(si.Instr.Rd)<<8 | uint64(si.Instr.Rs1)<<16 | uint64(si.Instr.Rs2)<<24
	if si.Outcome.Taken {
		flags |= 1 << 32
	}
	if si.Outcome.Halt {
		flags |= 1 << 33
	}
	for i, v := range [...]uint64{si.PC, flags, uint64(si.Instr.Imm), si.Instr.Target,
		si.Outcome.Result, si.Outcome.MemAddr, si.Outcome.Target, si.NextPC, 0} {
		binary.LittleEndian.PutUint64(buf[8*i:], v)
	}
	h.Write(buf[:])
}

// TestExecPathsAgree runs every registered workload through each way of
// driving the interpreter loop — Run, hook-free FastForward in uneven
// chunks, hooked FastForward and repeated Step — plus the isa.Evaluate
// reference, and requires one final Result and one digest of the
// per-instruction StepInfo stream.
func TestExecPathsAgree(t *testing.T) {
	const limit = 1 << 40
	for _, w := range workloads.All() {
		for _, scale := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/%d", w.Name, scale), func(t *testing.T) {
				p := w.BuildScaled(scale)

				ref := New(p)
				refDigest := fnv.New64a()
				for {
					si := refStep(&ref.Regs, ref.Mem, p.MustAt(ref.PC), ref.PC)
					ref.PC = si.NextPC
					ref.Retired++
					digestInfo(refDigest, &si)
					if si.Outcome.Halt {
						break
					}
				}
				want := ref.Result()

				run := New(p)
				if err := run.Run(limit); err != nil {
					t.Fatal(err)
				}
				if got := run.Result(); got != want {
					t.Fatalf("Run: %+v, reference %+v", got, want)
				}

				chunked := New(p)
				for chunk := uint64(1); !chunked.Halted; chunk = chunk*7%1021 + 1 {
					before := chunked.Retired
					if n := chunked.FastForward(chunk, nil); n != chunked.Retired-before || (n < chunk && !chunked.Halted) {
						t.Fatalf("FastForward(%d) = %d, retired %d -> %d", chunk, n, before, chunked.Retired)
					}
				}
				if got := chunked.Result(); got != want {
					t.Fatalf("chunked FastForward: %+v, reference %+v", got, want)
				}

				hooked := New(p)
				hookDigest := fnv.New64a()
				var seen uint64
				hooked.FastForward(limit, func(si *StepInfo) {
					seen++
					if hooked.PC != si.NextPC || hooked.Retired != seen || hooked.Halted != si.Outcome.Halt {
						t.Fatalf("hook at instruction %d sees PC 0x%x retired %d halted %v, want 0x%x %d %v",
							seen, hooked.PC, hooked.Retired, hooked.Halted, si.NextPC, seen, si.Outcome.Halt)
					}
					digestInfo(hookDigest, si)
				})
				if got := hooked.Result(); got != want {
					t.Fatalf("hooked FastForward: %+v, reference %+v", got, want)
				}

				stepped := New(p)
				stepDigest := fnv.New64a()
				for !stepped.Halted {
					si := stepped.Step()
					digestInfo(stepDigest, &si)
				}
				if got := stepped.Result(); got != want {
					t.Fatalf("Step: %+v, reference %+v", got, want)
				}

				r, h, s := refDigest.Sum64(), hookDigest.Sum64(), stepDigest.Sum64()
				if h != r || s != r {
					t.Fatalf("StepInfo stream digests: hook %#x, Step %#x, reference %#x", h, s, r)
				}
			})
		}
	}
}

// FuzzStepMatchesEvaluate executes one arbitrary instruction (any
// opcode, plus the first undefined one, with arbitrary fields) on random
// registers and one memory word placed where a load or store with those
// operands points. Step, a hooked FastForward and a hook-free
// FastForward must each leave the register file, the memory, the next
// PC and Halted as isa.Evaluate implies, and Step and the hook must see
// the StepInfo it implies; an undefined opcode must panic everywhere.
// Register fields are reduced to the 32 architectural registers: a
// larger number is a malformed program, not an instruction.
func FuzzStepMatchesEvaluate(f *testing.F) {
	for op := isa.NOP; op <= isa.HALT+1; op++ {
		f.Add(uint8(op), uint8(5), uint8(6), uint8(7), int64(-8), isa.DefaultCodeBase+64, uint64(0x1000), uint64(3), uint64(42), uint64(op))
	}
	f.Add(uint8(isa.DIV), uint8(1), uint8(2), uint8(3), int64(0), uint64(0), uint64(1)<<63, ^uint64(0), uint64(0), uint64(1))
	f.Add(uint8(isa.LD), uint8(0), uint8(1), uint8(1), int64(16), uint64(0), uint64(0x2000), uint64(0), uint64(99), uint64(2))
	f.Add(uint8(isa.JALR), uint8(1), uint8(1), uint8(0), int64(3), uint64(0), isa.DefaultCodeBase+1, uint64(0), uint64(0), uint64(3))
	f.Fuzz(func(t *testing.T, op, rd, rs1, rs2 uint8, imm int64, target, v1, v2, word, seed uint64) {
		const nregs = isa.NumArchRegs
		in := isa.Instruction{Op: isa.Op(op % uint8(isa.HALT+2)), Rd: isa.Reg(rd % nregs),
			Rs1: isa.Reg(rs1 % nregs), Rs2: isa.Reg(rs2 % nregs), Imm: imm, Target: target}
		p := &isa.Program{Name: "fuzz", Base: isa.DefaultCodeBase, Code: []isa.Instruction{in}}
		var regs [nregs]uint64
		for i := 1; i < nregs; i++ {
			seed += 0x9e3779b97f4a7c15
			regs[i] = seed ^ seed>>29
		}
		if in.Rs1 != isa.Zero {
			regs[in.Rs1] = v1
		}
		if in.Rs2 != isa.Zero {
			regs[in.Rs2] = v2
		}
		addr := regs[in.Rs1] + uint64(imm)
		fresh := func() *Emulator {
			e := New(p)
			e.Regs = regs
			e.Mem.Write(addr, word)
			return e
		}

		if in.Op > isa.HALT {
			for _, run := range []func(e *Emulator){
				func(e *Emulator) { e.Step() },
				func(e *Emulator) { e.FastForward(1, func(*StepInfo) {}) },
				func(e *Emulator) { e.FastForward(1, nil) },
			} {
				if !panics(func() { run(fresh()) }) {
					t.Fatalf("%v executed", in)
				}
			}
			if !panics(func() { isa.Evaluate(in, p.Base, 0, 0) }) {
				t.Fatalf("isa.Evaluate accepted %v", in)
			}
			return
		}

		wantRegs, wantMem := regs, NewMemory()
		wantMem.Write(addr, word)
		want := refStep(&wantRegs, wantMem, in, p.Base)
		check := func(how string, e *Emulator, got *StepInfo) {
			t.Helper()
			if e.Regs != wantRegs {
				t.Fatalf("%s %v: registers\n%v\nwant\n%v", how, in, e.Regs, wantRegs)
			}
			if !e.Mem.Equal(wantMem) {
				t.Fatalf("%s %v: memory %v, want %v", how, in, e.Mem.Snapshot(), wantMem.Snapshot())
			}
			if e.PC != want.NextPC || e.Halted != want.Outcome.Halt || e.Retired != 1 {
				t.Fatalf("%s %v: PC 0x%x halted %v retired %d, want 0x%x %v 1",
					how, in, e.PC, e.Halted, e.Retired, want.NextPC, want.Outcome.Halt)
			}
			if got != nil && *got != want {
				t.Fatalf("%s %v: StepInfo\n%+v\nwant\n%+v", how, in, *got, want)
			}
		}

		e := fresh()
		si := e.Step()
		check("Step", e, &si)

		e = fresh()
		var hooked StepInfo
		calls := 0
		e.FastForward(1, func(si *StepInfo) { hooked = *si; calls++ })
		if calls != 1 {
			t.Fatalf("hook called %d times", calls)
		}
		check("hooked FastForward", e, &hooked)

		e = fresh()
		e.FastForward(1, nil)
		check("FastForward", e, nil)
	})
}

func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// TestRunLimit pins Run's budget: a program that halts on exactly the
// last allowed instruction succeeds, a budget one instruction short is
// ErrInstructionLimit with every allowed instruction retired, a second
// Run under the same budget fails again without stepping, and a larger
// budget resumes to HALT.
func TestRunLimit(t *testing.T) {
	p := workloads.All()[0].BuildScaled(0)
	total, err := RunProgram(p, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunProgram(p, total.Retired); err != nil {
		t.Fatalf("Run(%d) on a %d-instruction program: %v", total.Retired, total.Retired, err)
	}
	e := New(p)
	limit := total.Retired - 1
	if err := e.Run(limit); !errors.Is(err, ErrInstructionLimit) {
		t.Fatalf("Run(%d) = %v, want ErrInstructionLimit", limit, err)
	}
	if e.Retired != limit || e.Halted {
		t.Fatalf("after the limit: retired %d halted %v, want %d false", e.Retired, e.Halted, limit)
	}
	if err := e.Run(limit); !errors.Is(err, ErrInstructionLimit) || e.Retired != limit {
		t.Fatalf("second Run(%d) = %v, retired %d", limit, err, e.Retired)
	}
	if err := e.Run(limit + 1); err != nil || !e.Halted {
		t.Fatalf("Run(%d) = %v, halted %v", limit+1, err, e.Halted)
	}
}

// TestFastForwardHookAllocs guards the warming path: a hooked
// FastForward hands the hook a pointer into the emulator, never a fresh
// StepInfo, so it allocates nothing.
func TestFastForwardHookAllocs(t *testing.T) {
	p := workloads.All()[0].BuildScaled(1)
	e := New(p)
	var loads uint64
	hook := func(si *StepInfo) {
		if si.Instr.IsLoad() {
			loads++
		}
	}
	e.FastForward(1000, hook) // materialize the pages the next calls touch
	allocs := testing.AllocsPerRun(100, func() { e.FastForward(100, hook) })
	if allocs != 0 {
		t.Fatalf("FastForward with a hook: %v allocs per call, want 0", allocs)
	}
	if e.Halted || loads == 0 {
		t.Fatalf("the guarded run did not exercise the loop: halted %v, %d loads", e.Halted, loads)
	}
}

var benchSink uint64

// BenchmarkFastForward times the interpreter loop over every registered
// workload at scale 1, advancing one workload by a 10,000-instruction
// skip per iteration (restarting it once it halts), with and without a
// warming-style hook. It reports emulated MIPS.
func BenchmarkFastForward(b *testing.B) {
	const skip = 10_000
	var ems []*Emulator
	for _, w := range workloads.All() {
		ems = append(ems, New(w.BuildScaled(1)))
	}
	for _, bc := range []struct {
		name string
		hook func(*StepInfo)
	}{
		{"nohook", nil},
		{"hook", func(si *StepInfo) { benchSink += si.Outcome.MemAddr }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var retired uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := ems[i%len(ems)]
				if e.Halted {
					e.Reset(e.Prog)
				}
				retired += e.FastForward(skip, bc.hook)
			}
			b.ReportMetric(float64(retired)/b.Elapsed().Seconds()/1e6, "MIPS")
		})
	}
}
