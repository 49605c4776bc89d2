package cpu

import "didt/internal/isa"

// decoded is the static description of one program instruction: every
// fact the pipeline stages need that depends only on the instruction, not
// on its dynamic instance. New builds one per program PC, so fetch,
// dispatch, issue, writeback and commit read a table entry instead of
// re-deriving class, latency, unit group and operands every cycle.
type decoded struct {
	class     isa.Class
	group     fuGroup
	lat       int  // execution latency of the class; loads take the cache's
	pipelined bool // the unit accepts a new operation next cycle
	fuGated   bool // executes on a pipeline the FU actuator can gate

	isLoad, isStore, isMem, isBranch, isHalt bool

	writesInt, writesFP bool
	dst                 uint8 // destination register (LinkReg for CALL)

	nsrc int
	srcs [3]regRef
}

// decode predecodes one instruction under the given configuration.
func (c Config) decode(in isa.Instr) decoded {
	cl := isa.ClassOf(in.Op)
	d := decoded{
		class:     cl,
		group:     groupOf(cl),
		isLoad:    in.IsLoad(),
		isStore:   in.IsStore(),
		isMem:     in.IsMem(),
		isBranch:  in.IsBranch(),
		isHalt:    in.Op == isa.HALT,
		writesInt: in.WritesInt(),
		writesFP:  in.WritesFP(),
		dst:       in.Dst,
	}
	d.lat, d.pipelined = c.latency(cl)
	if d.isLoad || d.isStore {
		d.pipelined = true
	}
	switch cl {
	case isa.ClassIntALU, isa.ClassIntMult, isa.ClassIntDiv,
		isa.ClassFPAdd, isa.ClassFPMult, isa.ClassFPDiv, isa.ClassBranch:
		d.fuGated = true
	}
	if in.Op == isa.CALL {
		d.dst = isa.LinkReg
	}
	d.srcs, d.nsrc = sourceRegs(in)
	return d
}

// regRef names one register operand.
type regRef struct {
	fp  bool
	reg uint8
}

// sourceRegs lists the register operands an instruction reads.
func sourceRegs(in isa.Instr) ([3]regRef, int) {
	switch in.Op {
	case isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.SHL, isa.SHR,
		isa.CMPLT, isa.CMPEQ, isa.MUL, isa.DIV:
		return [3]regRef{{false, in.Src1}, {false, in.Src2}}, 2
	case isa.CMOVNZ:
		return [3]regRef{{false, in.Src1}, {false, in.Src2}, {false, in.Dst}}, 3
	case isa.ADDI:
		return [3]regRef{{false, in.Src1}}, 1
	case isa.FADD, isa.FSUB, isa.FMUL, isa.FDIV:
		return [3]regRef{{true, in.Src1}, {true, in.Src2}}, 2
	case isa.LD, isa.FLD:
		return [3]regRef{{false, in.Src1}}, 1
	case isa.ST:
		return [3]regRef{{false, in.Src1}, {false, in.Src2}}, 2
	case isa.FST:
		return [3]regRef{{false, in.Src1}, {true, in.Src2}}, 2
	case isa.BEQZ, isa.BNEZ:
		return [3]regRef{{false, in.Src1}}, 1
	case isa.RET:
		return [3]regRef{{false, isa.LinkReg}}, 1
	}
	return [3]regRef{}, 0
}
