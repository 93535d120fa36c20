package rob

import (
	"fmt"

	"repro/internal/uop"
)

// DebugCrossCheckDoD, when set, makes every ApproxDoD query re-run the
// original linear §4.1 walk and panic on divergence from the incremental
// counter. It is a correctness harness for tests and debugging; leave it
// off in measurement runs.
var DebugCrossCheckDoD bool

// ApproxDoD is the paper's low-complexity dependence counter (§4.1): the
// number of ROB entries younger than the load at loadSlot whose "result
// valid" bit is still clear — i.e. every not-yet-executed instruction is
// *assumed* to depend on the load. No register tags are propagated. The
// accuracy of the approximation improves with the delay between miss
// detection and counting, because independent short-latency work drains
// in the interim.
//
// The count is answered from the ring's incremental unexecuted-entry
// state (maintained at push/execute/squash/commit) in O(log capacity)
// instead of walking the window; ApproxDoDLinear is the original walk,
// kept as the cross-check oracle behind DebugCrossCheckDoD.
func ApproxDoD(r *Ring, loadSlot int32) int {
	n := r.UnexecutedYounger(loadSlot)
	if DebugCrossCheckDoD {
		if lin := ApproxDoDLinear(r, loadSlot); lin != n {
			panic(fmt.Sprintf("rob: incremental DoD %d diverges from linear walk %d (slot %d)", n, lin, loadSlot))
		}
	}
	return n
}

// ApproxDoDLinear is the original O(window) counting walk. It is the
// reference implementation the incremental counter is validated against
// (see DebugCrossCheckDoD and the property tests); the simulator's hot
// paths use ApproxDoD.
func ApproxDoDLinear(r *Ring, loadSlot int32) int {
	pos := r.PosOf(loadSlot)
	if pos < 0 {
		return 0
	}
	n := 0
	for i := pos + 1; i < r.Len(); i++ {
		e := r.At(r.SlotAt(i))
		if !e.Executed && !e.Squashed {
			n++
		}
	}
	return n
}

// ExactDoD computes the true register-dataflow degree of dependence: the
// number of ROB entries younger than the load whose sources transitively
// reach the load's destination register. The paper argues this would
// require expensive tag broadcasts in hardware; the simulator provides it
// to quantify the approximation error (§4.1's accuracy discussion).
// It allocates and walks the whole window, so the pipeline calls it only
// from writeback when Config.TrackExactDoD is set, once per serviced miss.
func ExactDoD(r *Ring, loadSlot int32) int {
	pos := r.PosOf(loadSlot)
	if pos < 0 {
		return 0
	}
	load := r.At(loadSlot)
	if load.DestPhys == uop.NoReg {
		return 0
	}
	// Dependence set of physical registers, seeded with the load's dest.
	// Sizes are tiny (≤ ROB length), so a slice scan beats a map.
	depRegs := make([]int32, 0, 16)
	depRegs = append(depRegs, load.DestPhys)
	inSet := func(p int32) bool {
		for _, q := range depRegs {
			if q == p {
				return true
			}
		}
		return false
	}
	n := 0
	for i := pos + 1; i < r.Len(); i++ {
		e := r.At(r.SlotAt(i))
		if e.Squashed {
			continue
		}
		dep := false
		for _, s := range e.SrcPhys {
			if s != uop.NoReg && inSet(s) {
				dep = true
				break
			}
		}
		if dep {
			n++
			if e.DestPhys != uop.NoReg && !inSet(e.DestPhys) {
				depRegs = append(depRegs, e.DestPhys)
			}
		}
	}
	return n
}
