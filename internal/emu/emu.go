package emu

import (
	"errors"
	"fmt"

	"mssr/internal/isa"
)

// ErrInstructionLimit is returned by Run when the program has not halted
// within the allowed number of instructions.
var ErrInstructionLimit = errors.New("emu: instruction limit exceeded")

// Emulator executes a program at architectural (ISA) level, one instruction
// per Step, with no timing. It is the semantic oracle for the repository.
type Emulator struct {
	Prog *isa.Program
	Regs [isa.NumArchRegs]uint64
	Mem  *Memory
	PC   uint64
	// Halted reports that a HALT instruction has retired.
	Halted bool
	// Retired counts architecturally executed instructions.
	Retired uint64

	// info is the StepInfo the interpreter loop records into for Step
	// and hooked FastForward. It is a field so that the pointer handed
	// to a hook does not make each call allocate.
	info StepInfo
}

// New returns an emulator with the program's data segments loaded and the
// PC at the program base.
func New(p *isa.Program) *Emulator {
	e := &Emulator{Prog: p, Mem: NewMemory(), PC: p.Base}
	e.Mem.Load(p)
	return e
}

// Reset reinitializes the emulator in place to run p from scratch,
// keeping the memory's pooled page storage.
func (e *Emulator) Reset(p *isa.Program) {
	e.Prog = p
	e.Regs = [isa.NumArchRegs]uint64{}
	e.Mem.Clear()
	e.Mem.Load(p)
	e.PC = p.Base
	e.Halted = false
	e.Retired = 0
}

// StepInfo describes one architecturally executed instruction; the timing
// simulators' built-in retirement checkers compare against it.
type StepInfo struct {
	PC      uint64
	Instr   isa.Instruction
	Outcome isa.Outcome
	NextPC  uint64
}

// Step executes the instruction at the current PC. Calling Step on a halted
// emulator is a no-op that returns the final state of the HALT.
func (e *Emulator) Step() StepInfo {
	if e.Halted {
		return StepInfo{PC: e.PC, Instr: isa.Instruction{Op: isa.HALT}, NextPC: e.PC}
	}
	e.exec(1, nil, true)
	return e.info
}

// Run executes until HALT or until maxInstrs instructions have retired,
// returning ErrInstructionLimit in the latter case.
func (e *Emulator) Run(maxInstrs uint64) error {
	if e.Retired < maxInstrs {
		e.exec(maxInstrs-e.Retired, nil, false)
	}
	if !e.Halted {
		return fmt.Errorf("%w (%d instructions, PC=0x%x)", ErrInstructionLimit, maxInstrs, e.PC)
	}
	return nil
}

// ArchState is an exported architectural machine state: everything a
// consumer needs to resume execution of the same program mid-stream. It is
// the handoff format between functional fast-forward and a detailed core
// window (Core.SeedFrom).
type ArchState struct {
	Regs    [isa.NumArchRegs]uint64
	Mem     *Memory
	PC      uint64
	Retired uint64
	Halted  bool
}

// State exports the current architectural state. Mem aliases the
// emulator's live memory — no copy is made, so a consumer that keeps the
// state across further emulator steps must deep-copy it (Memory.CopyFrom
// or Memory.Clone).
func (e *Emulator) State() ArchState {
	return ArchState{Regs: e.Regs, Mem: e.Mem, PC: e.PC, Retired: e.Retired, Halted: e.Halted}
}

// SetState restores a previously exported architectural state, deep-copying
// the memory image into the emulator's pooled pages. The loaded program is
// unchanged; st must describe a point in the same program.
func (e *Emulator) SetState(st *ArchState) {
	e.Regs = st.Regs
	e.Mem.CopyFrom(st.Mem)
	e.PC = st.PC
	e.Retired = st.Retired
	e.Halted = st.Halted
}

// FastForward architecturally executes up to n instructions, invoking hook
// (when non-nil) after each one — the seam used for cache and
// branch-predictor warming during functional skip. The StepInfo the hook
// receives is only valid for the duration of the call; a hook that keeps
// it must copy, and a hook must not modify the emulator. FastForward
// returns the number actually retired, which is less than n only if the
// program halts first.
func (e *Emulator) FastForward(n uint64, hook func(*StepInfo)) uint64 {
	return e.exec(n, hook, hook != nil)
}

// exec is the emulator's one interpreter loop, behind Run, Step and
// FastForward: it retires up to n instructions (fewer only if HALT
// retires first) and returns how many it retired. It indexes the
// program's predecoded instructions directly, keeps the PC and retire
// count in locals until it returns, and evaluates every opcode inline
// in one switch that writes the destination register, memory and next
// PC itself. With record set it also fills e.info for each instruction,
// and a non-nil hook (which requires record) is then called with it,
// e.PC, e.Retired and e.Halted already current; a hook must not modify
// the emulator. FuzzStepMatchesEvaluate checks the switch against
// isa.Evaluate, the definition the timing core executes.
func (e *Emulator) exec(n uint64, hook func(*StepInfo), record bool) uint64 {
	if e.Halted {
		return 0
	}
	code, base := e.Prog.Code, e.Prog.Base
	pc, start := e.PC, e.Retired
	retired, end := start, start+n
	if end < start {
		end = ^uint64(0) // n runs past the counter's range: no limit
	}
	const regMask = isa.NumArchRegs - 1
	for retired < end {
		off := pc - base
		if off/isa.InstrBytes >= uint64(len(code)) || off%isa.InstrBytes != 0 {
			e.PC, e.Retired = pc, retired
			// MustAt panics, naming the program's bounds. The explicit
			// panic after it tells the compiler this path never rejoins
			// the loop, which saves the hot path some register spills.
			e.Prog.MustAt(pc)
			panic("unreachable")
		}
		in := &code[off/isa.InstrBytes]
		// Both source fields are read for every opcode (masked, so an
		// unused field cannot fault); each case uses only its own.
		a, b := e.Regs[in.Rs1&regMask], e.Regs[in.Rs2&regMask]
		next := pc + isa.InstrBytes
		taken := false
		var addr, stored uint64 // a load or store's address, a store's value
		switch in.Op {
		case isa.NOP:
		case isa.ADD:
			e.Regs[in.Rd] = a + b
		case isa.SUB:
			e.Regs[in.Rd] = a - b
		case isa.AND:
			e.Regs[in.Rd] = a & b
		case isa.OR:
			e.Regs[in.Rd] = a | b
		case isa.XOR:
			e.Regs[in.Rd] = a ^ b
		case isa.SLL:
			e.Regs[in.Rd] = a << (b & 63)
		case isa.SRL:
			e.Regs[in.Rd] = a >> (b & 63)
		case isa.SRA:
			e.Regs[in.Rd] = uint64(int64(a) >> (b & 63))
		case isa.SLT:
			e.Regs[in.Rd] = b2u(int64(a) < int64(b))
		case isa.SLTU:
			e.Regs[in.Rd] = b2u(a < b)
		case isa.MUL:
			e.Regs[in.Rd] = a * b
		case isa.DIV:
			switch {
			case b == 0:
				e.Regs[in.Rd] = ^uint64(0)
			case int64(a) == -1<<63 && int64(b) == -1:
				e.Regs[in.Rd] = a
			default:
				e.Regs[in.Rd] = uint64(int64(a) / int64(b))
			}
		case isa.REM:
			switch {
			case b == 0:
				e.Regs[in.Rd] = a
			case int64(a) == -1<<63 && int64(b) == -1:
				e.Regs[in.Rd] = 0
			default:
				e.Regs[in.Rd] = uint64(int64(a) % int64(b))
			}
		case isa.MIN:
			m := a
			if int64(b) < int64(a) {
				m = b
			}
			e.Regs[in.Rd] = m
		case isa.MAX:
			m := a
			if int64(b) > int64(a) {
				m = b
			}
			e.Regs[in.Rd] = m
		case isa.ADDI:
			e.Regs[in.Rd] = a + uint64(in.Imm)
		case isa.ANDI:
			e.Regs[in.Rd] = a & uint64(in.Imm)
		case isa.ORI:
			e.Regs[in.Rd] = a | uint64(in.Imm)
		case isa.XORI:
			e.Regs[in.Rd] = a ^ uint64(in.Imm)
		case isa.SLLI:
			e.Regs[in.Rd] = a << (uint64(in.Imm) & 63)
		case isa.SRLI:
			e.Regs[in.Rd] = a >> (uint64(in.Imm) & 63)
		case isa.SRAI:
			e.Regs[in.Rd] = uint64(int64(a) >> (uint64(in.Imm) & 63))
		case isa.SLTI:
			e.Regs[in.Rd] = b2u(int64(a) < in.Imm)
		case isa.LI:
			e.Regs[in.Rd] = uint64(in.Imm)
		case isa.LD:
			addr = a + uint64(in.Imm)
			e.Regs[in.Rd] = e.Mem.Read(addr)
		case isa.ST:
			addr, stored = a+uint64(in.Imm), b
			e.Mem.Write(addr, stored)
		case isa.BEQ:
			if a == b {
				next, taken = in.Target, true
			}
		case isa.BNE:
			if a != b {
				next, taken = in.Target, true
			}
		case isa.BLT:
			if int64(a) < int64(b) {
				next, taken = in.Target, true
			}
		case isa.BGE:
			if int64(a) >= int64(b) {
				next, taken = in.Target, true
			}
		case isa.BLTU:
			if a < b {
				next, taken = in.Target, true
			}
		case isa.BGEU:
			if a >= b {
				next, taken = in.Target, true
			}
		case isa.JAL:
			e.Regs[in.Rd] = next
			next, taken = in.Target, true
		case isa.JALR:
			e.Regs[in.Rd] = next
			next = (a + uint64(in.Imm)) &^ (isa.InstrBytes - 1)
		case isa.HALT:
			next, end = pc, retired+1
			e.Halted = true
		default:
			e.PC, e.Retired = pc, retired
			panic(fmt.Sprintf("emu: cannot execute %v at 0x%x", in.Op, pc))
		}
		retired++
		if record {
			// The Outcome isa.Evaluate defines, with a load's Result
			// being the loaded word; Regs[Rd] is read before x0 is
			// restored, so it holds what an x0-writing op computed.
			// Field-by-field stores: a composite literal would be built
			// on the stack and block-copied on every hooked step.
			info := &e.info
			info.PC, info.Instr, info.NextPC = pc, *in, next
			out := &info.Outcome
			out.Taken, out.Halt = taken || in.Op == isa.JALR, in.Op == isa.HALT
			out.Target = 0
			if out.Taken {
				out.Target = next
			}
			out.MemAddr, out.Result = addr, stored
			switch in.Class() {
			case isa.ClassStore, isa.ClassBranch, isa.ClassHalt, isa.ClassNop:
			default:
				out.Result = e.Regs[in.Rd]
			}
		}
		e.Regs[isa.Zero] = 0 // undo any write to the zero register
		pc = next
		if hook != nil {
			e.PC, e.Retired = pc, retired
			hook(&e.info)
		}
	}
	e.PC, e.Retired = pc, retired
	return retired - start
}

func b2u(c bool) uint64 {
	if c {
		return 1
	}
	return 0
}

// Result is the final architectural state in comparable form.
type Result struct {
	Regs      [isa.NumArchRegs]uint64
	MemDigest uint64
	Retired   uint64
}

// Result captures the current architectural state.
func (e *Emulator) Result() Result {
	return Result{Regs: e.Regs, MemDigest: e.Mem.Hash(), Retired: e.Retired}
}

// RunProgram is a convenience wrapper: execute p to completion and return
// the final state.
func RunProgram(p *isa.Program, maxInstrs uint64) (Result, error) {
	e := New(p)
	if err := e.Run(maxInstrs); err != nil {
		return Result{}, err
	}
	return e.Result(), nil
}
