package workload

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/rng"
)

// Generator produces the dynamic instruction stream for one thread by
// executing a synthesized static program. It is deterministic: the same
// (profile, seed) pair yields the same stream, so different simulator
// configurations replay identical traces.
type Generator struct {
	prof Profile
	prog *program
	r    *rng.SplitMix64

	codeBase uint64
	dataBase uint64

	cur        int32    // current static instruction index
	streamPos  []uint64 // per-stream cursor offsets
	streamSpan uint64   // bytes per stream region
}

// NewGenerator synthesizes the static program for prof and returns a
// generator positioned at its first instruction. Each thread should use a
// distinct seed so that address regions and dynamic outcomes differ.
func NewGenerator(prof Profile, seed uint64) (*Generator, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	return newGenerator(prof, seed), nil
}

func newGenerator(prof Profile, seed uint64) *Generator {
	// The static program depends only on the benchmark name — the same
	// "binary" is used wherever the benchmark appears — while dynamic
	// outcomes (branch draws, random addresses) vary with seed.
	progR := rng.New(hashName(prof.Name))
	// Distinct 4 GiB regions per seed keep threads' address spaces
	// disjoint, and low-bit salt scatters each region across cache sets —
	// page-aligned bases would put every thread in the same few sets and
	// thrash the shared caches into starvation.
	salt := (seed + 1) * 0x9e3779b97f4a7c15
	g := &Generator{
		prof:      prof,
		prog:      synthesize(&prof, progR),
		r:         rng.New(seed*0x9e3779b97f4a7c15 + 2),
		codeBase:  (seed&0xffff|0x1_0000)<<32 + salt&0x3f_ffc0,
		dataBase:  (seed&0xffff|0x8_0000)<<32 + (salt>>20)&0x3fff_ff80,
		streamPos: make([]uint64, prof.IndepMemPar),
	}
	g.streamSpan = prof.WorkingSet / uint64(prof.IndepMemPar)
	if g.streamSpan < 4096 {
		g.streamSpan = 4096
	}
	for i := range g.streamPos {
		g.streamPos[i] = uint64(g.r.Intn(1<<12)) * 8
	}
	return g
}

// MustNewGenerator is NewGenerator but panics on an invalid profile; for
// use with the package's own vetted profile table.
func MustNewGenerator(prof Profile, seed uint64) *Generator {
	g, err := NewGenerator(prof, seed)
	if err != nil {
		panic(err)
	}
	return g
}

// hashName is FNV-1a over the benchmark name.
func hashName(name string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// Regions reports the thread's code and data address ranges so the
// simulator can prewarm its caches (steady-state measurement on short
// runs, standing in for the paper's 100M-instruction SimPoints).
func (g *Generator) Regions() []isa.Region {
	return []isa.Region{
		{Base: g.codeBase, Size: uint64(len(g.prog.insts)) * 4, Code: true},
		{Base: g.dataBase, Size: g.prof.WorkingSet},
	}
}

// ProgramLen returns the static program length in instructions.
func (g *Generator) ProgramLen() int { return len(g.prog.insts) }

// Profile returns the generator's profile.
func (g *Generator) Profile() Profile { return g.prof }

// Next fills out with the next dynamic instruction. The stream is endless
// (the program loops); callers stop at their instruction budget.
func (g *Generator) Next(out *isa.TraceInst) {
	si := &g.prog.insts[g.cur]
	out.PC = g.codeBase + uint64(g.cur)*4
	out.Op = si.op
	out.Dest = si.dest
	out.Src1 = si.src1
	out.Src2 = si.src2
	out.Addr = 0
	out.Taken = false

	switch si.op {
	case isa.OpBranch:
		taken := si.biasTaken
		if !g.r.Bool(si.biasP) {
			taken = !taken
		}
		out.Taken = taken
		if taken {
			g.cur = si.takenTarget
		} else {
			g.cur = si.notTakenTarget
		}
	case isa.OpLoad, isa.OpStore:
		out.Addr = g.address(si)
		g.advance()
	default:
		g.advance()
	}
}

// BranchTarget returns the taken-target PC of the branch at pc, as the
// front end's BTB would need it. It panics if pc is not a branch of this
// generator's program (callers pass PCs produced by Next).
func (g *Generator) BranchTarget(pc uint64) uint64 {
	idx := int32((pc - g.codeBase) / 4)
	si := &g.prog.insts[idx]
	if si.op != isa.OpBranch {
		panic(fmt.Sprintf("workload: BranchTarget on non-branch pc %#x", pc))
	}
	return g.codeBase + uint64(si.takenTarget)*4
}

func (g *Generator) advance() {
	g.cur++
	if int(g.cur) >= len(g.prog.insts) {
		g.cur = 0
	}
}

func (g *Generator) address(si *staticInst) uint64 {
	switch si.role {
	case memStream:
		i := int(si.streamIdx)
		pos := g.streamPos[i]
		g.streamPos[i] = (pos + g.prof.Stride) % g.streamSpan
		return g.dataBase + uint64(i)*g.streamSpan + pos&^7 + 8
	case memChase:
		// Chase addresses are uniform over the working set; the chase's
		// serialization is carried by its register dependence.
		off := g.r.Uint64() % g.prof.WorkingSet
		return g.dataBase + off&^7 + 8
	case memRandom:
		// Temporal locality: most random accesses re-touch a small hot
		// region (which therefore survives LRU under neighbouring
		// threads' streaming pollution); the rest are uniform.
		span := g.prof.WorkingSet
		if g.prof.HotFrac > 0 && g.r.Bool(g.prof.HotFrac) {
			span = g.prof.HotSet
		}
		off := g.r.Uint64() % span
		return g.dataBase + off&^7 + 8
	default:
		panic("workload: memory op without an address role")
	}
}

// Stats summarizes a generated stream prefix; used by tracegen and tests
// to verify that a profile realizes its declared mix.
type Stats struct {
	Total    uint64
	PerOp    [isa.NumOpClasses]uint64
	Taken    uint64
	Branches uint64
}

// Measure runs the generator forward n instructions and tallies the mix.
func Measure(g *Generator, n int) Stats {
	var st Stats
	var ti isa.TraceInst
	for i := 0; i < n; i++ {
		g.Next(&ti)
		st.Total++
		st.PerOp[ti.Op]++
		if ti.Op == isa.OpBranch {
			st.Branches++
			if ti.Taken {
				st.Taken++
			}
		}
	}
	return st
}
