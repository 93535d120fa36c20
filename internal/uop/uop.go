// Package uop defines the dynamic micro-operation record that flows
// through the simulated pipeline. The per-thread ROB rings own the UOp
// storage; the issue queue, LSQ and function units refer to entries by
// (thread, ROB slot) handles.
package uop

import "repro/internal/isa"

// NoReg marks an absent physical register operand.
const NoReg int32 = -1

// UOp is one in-flight dynamic instruction.
type UOp struct {
	PC   uint64
	Addr uint64 // effective address (memory ops)
	Seq  uint64 // global dispatch order, for oldest-first selection

	Op       isa.OpClass
	Tid      int8
	DestArch int8    // architectural destination (isa.RegNone if none)
	SrcArch  [2]int8 // architectural sources, kept for squash replay

	Hist uint64 // branch-history snapshot at fetch (gshare repair, DoD path hash)

	SrcPhys  [2]int32 // physical sources (NoReg if absent)
	DestPhys int32    // physical destination (NoReg if none)
	OldPhys  int32    // previous mapping of DestArch, freed at commit

	RobSlot int32 // slot in the owning thread's ROB ring
	LsqSlot int32 // slot in the thread's LSQ (-1 if none)

	// Status bits. Executed corresponds to the ROB "result valid" bit the
	// paper's DoD counter walks.
	Issued    bool
	Executed  bool
	Squashed  bool
	WrongPath bool // synthetic wrong-path instruction (never commits)

	// Branch state.
	PredTaken bool
	Taken     bool
	Mispred   bool

	// Load state.
	L1Miss     bool
	L2Detected bool // the L2 miss has been reported to the ROB manager
}

// Handle identifies an in-flight UOp by thread and ROB slot.
type Handle struct {
	Tid  int8
	Slot int32
}

// IsMem reports whether the uop is a load or store.
func (u *UOp) IsMem() bool { return u.Op.IsMem() }

// Busy reports whether the uop still occupies issue resources (dispatched
// but not yet finished executing).
func (u *UOp) Busy() bool { return !u.Executed && !u.Squashed }
