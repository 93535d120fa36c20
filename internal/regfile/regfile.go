// Package regfile models the shared physical register files of the SMT
// datapath (Table 1: 224 integer + 224 floating-point physical registers),
// the per-thread rename maps, the free lists, and the ready scoreboard.
//
// Renaming follows the P4/Alpha-style scheme the paper assumes: results are
// written directly to the physical register file (the ROB holds no values),
// a destination allocates a fresh physical register at dispatch, the
// previous mapping is freed when the instruction commits, and a branch
// squash walks the ROB youngest-first undoing mappings.
package regfile

import (
	"fmt"

	"repro/internal/isa"
)

// File is the combined integer+FP physical register state. Physical
// registers are numbered [0, NumInt) for integer and [NumInt, NumInt+NumFP)
// for floating point.
type File struct {
	numInt, numFP int
	freeInt       []int32
	freeFP        []int32
	ready         []bool
	renameMap     [][]int32 // [thread][arch] -> phys
}

// New builds a register file with numInt/numFP RENAME registers per pool
// beyond the architected state: each thread's architectural registers are
// pre-mapped to additional committed physical registers, so the full free
// pools remain available for in-flight renaming. (Table 1's 224+224 must
// be rename capacity: the paper's 384-entry second-level ROB could never
// fill if 128 of 224 were consumed by the four threads' committed state.)
func New(numInt, numFP, threads int) (*File, error) {
	if numInt < 1 || numFP < 1 || threads < 1 {
		return nil, fmt.Errorf("regfile: bad shape int=%d fp=%d threads=%d", numInt, numFP, threads)
	}
	numInt += threads * isa.NumIntRegs
	numFP += threads * isa.NumFPRegs
	f := &File{
		numInt: numInt,
		numFP:  numFP,
		ready:  make([]bool, numInt+numFP),
	}
	f.renameMap = make([][]int32, threads)
	next := int32(0)
	nextFP := int32(numInt)
	for t := 0; t < threads; t++ {
		m := make([]int32, isa.NumRegs)
		for a := 0; a < isa.NumIntRegs; a++ {
			m[a] = next
			f.ready[next] = true
			next++
		}
		for a := 0; a < isa.NumFPRegs; a++ {
			m[isa.NumIntRegs+a] = nextFP
			f.ready[nextFP] = true
			nextFP++
		}
		f.renameMap[t] = m
	}
	for p := next; p < int32(numInt); p++ {
		f.freeInt = append(f.freeInt, p)
	}
	for p := nextFP; p < int32(numInt+numFP); p++ {
		f.freeFP = append(f.freeFP, p)
	}
	return f, nil
}

// Regs returns the number of physical registers, integer and FP.
func (f *File) Regs() int { return len(f.ready) }

// IsFPPhys reports whether phys register p belongs to the FP pool.
func (f *File) IsFPPhys(p int32) bool { return int(p) >= f.numInt }

// Lookup returns the current physical register for (tid, arch).
func (f *File) Lookup(tid, arch int) int32 { return f.renameMap[tid][arch] }

// FreeCount returns the number of free registers in a pool.
func (f *File) FreeCount(fp bool) int {
	if fp {
		return len(f.freeFP)
	}
	return len(f.freeInt)
}

// Allocate renames (tid, arch) to a fresh physical register of the proper
// class, returning the new and previous mappings. ok is false (state
// unchanged) when the pool is empty — the caller must stall dispatch.
func (f *File) Allocate(tid, arch int) (newPhys, oldPhys int32, ok bool) {
	fp := isa.IsFPReg(arch)
	var pool *[]int32
	if fp {
		pool = &f.freeFP
	} else {
		pool = &f.freeInt
	}
	n := len(*pool)
	if n == 0 {
		return 0, 0, false
	}
	newPhys = (*pool)[n-1]
	*pool = (*pool)[:n-1]
	oldPhys = f.renameMap[tid][arch]
	f.renameMap[tid][arch] = newPhys
	f.ready[newPhys] = false
	return newPhys, oldPhys, true
}

// Ready reports whether a physical register's value has been produced.
func (f *File) Ready(p int32) bool { return f.ready[p] }

// SetReady marks a physical register as produced (writeback).
func (f *File) SetReady(p int32) { f.ready[p] = true }

// Release returns a physical register to its free pool: at commit the
// *previous* mapping of the destination is released.
func (f *File) Release(p int32) {
	if f.IsFPPhys(p) {
		f.freeFP = append(f.freeFP, p)
	} else {
		f.freeInt = append(f.freeInt, p)
	}
}

// Rollback undoes one rename during a youngest-first squash walk: the
// architectural register is restored to oldPhys and the speculatively
// allocated newPhys returns to the free pool.
func (f *File) Rollback(tid, arch int, newPhys, oldPhys int32) {
	f.renameMap[tid][arch] = oldPhys
	f.Release(newPhys)
}

// InFlight returns the number of allocated (non-free, non-committed...)
// registers of a pool beyond the architectural baseline; used by resource
// policies to attribute pressure.
func (f *File) InFlight(fp bool) int {
	if fp {
		return f.numFP - len(f.freeFP)
	}
	return f.numInt - len(f.freeInt)
}

// CheckInvariants verifies free-list consistency (no duplicates, no
// register both free and mapped). O(N); tests only.
func (f *File) CheckInvariants() error {
	seen := make(map[int32]string)
	for _, p := range f.freeInt {
		if f.IsFPPhys(p) {
			return fmt.Errorf("regfile: fp reg %d on int free list", p)
		}
		if _, dup := seen[p]; dup {
			return fmt.Errorf("regfile: reg %d twice on free lists", p)
		}
		seen[p] = "free"
	}
	for _, p := range f.freeFP {
		if !f.IsFPPhys(p) {
			return fmt.Errorf("regfile: int reg %d on fp free list", p)
		}
		if _, dup := seen[p]; dup {
			return fmt.Errorf("regfile: reg %d twice on free lists", p)
		}
		seen[p] = "free"
	}
	for t, m := range f.renameMap {
		for a, p := range m {
			if where, bad := seen[p]; bad && where == "free" {
				return fmt.Errorf("regfile: thread %d arch %d maps to free reg %d", t, a, p)
			}
		}
	}
	return nil
}
