package workload

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/isa"
	"repro/internal/rng"
)

func testProgram(t *testing.T, name string) *program {
	t.Helper()
	prof, ok := ProfileFor(name)
	if !ok {
		t.Fatalf("unknown profile %q", name)
	}
	return synthesize(&prof, rng.New(1))
}

func TestProgramShape(t *testing.T) {
	for _, name := range Names() {
		prof, _ := ProfileFor(name)
		p := synthesize(&prof, rng.New(1))
		if len(p.blockStart) != prof.Blocks {
			t.Errorf("%s: %d blocks, profile wants %d", name, len(p.blockStart), prof.Blocks)
		}
		if len(p.insts) < prof.Blocks*2 {
			t.Errorf("%s: program too short: %d", name, len(p.insts))
		}
	}
}

func TestEveryBlockEndsWithBranch(t *testing.T) {
	p := testProgram(t, "parser")
	for b, start := range p.blockStart {
		var end int32
		if b+1 < len(p.blockStart) {
			end = p.blockStart[b+1] - 1
		} else {
			end = int32(len(p.insts)) - 1
		}
		if p.insts[end].op != isa.OpBranch {
			t.Fatalf("block %d does not end with a branch (op %v)", b, p.insts[end].op)
		}
		// No branches inside the block body.
		for i := start; i < end; i++ {
			if p.insts[i].op == isa.OpBranch {
				t.Fatalf("stray branch inside block %d at %d", b, i)
			}
		}
	}
}

func TestBranchTargetsAreBlockStarts(t *testing.T) {
	p := testProgram(t, "crafty")
	starts := map[int32]bool{}
	for _, s := range p.blockStart {
		starts[s] = true
	}
	for i := range p.insts {
		si := &p.insts[i]
		if si.op != isa.OpBranch {
			continue
		}
		if !starts[si.takenTarget] {
			t.Fatalf("branch %d taken target %d is not a block start", i, si.takenTarget)
		}
		if !starts[si.notTakenTarget] {
			t.Fatalf("branch %d fallthrough %d is not a block start", i, si.notTakenTarget)
		}
	}
}

func TestChaseLoadsUseChaseRegister(t *testing.T) {
	p := testProgram(t, "mcf") // ChaseFrac 0.35
	chases, plain := 0, 0
	for i := range p.insts {
		si := &p.insts[i]
		if si.op != isa.OpLoad {
			continue
		}
		if si.role == memChase {
			chases++
			if si.dest != chaseReg || si.src1 != chaseReg {
				t.Fatalf("chase load %d: dest=%d src=%d, want %d", i, si.dest, si.src1, chaseReg)
			}
		} else {
			plain++
			if si.dest == chaseReg {
				t.Fatalf("non-chase load %d writes the chase register", i)
			}
		}
	}
	if chases == 0 {
		t.Fatal("mcf has no chase loads")
	}
	if plain == 0 {
		t.Fatal("mcf has only chase loads")
	}
}

func TestNoChaseInStreamingProfiles(t *testing.T) {
	p := testProgram(t, "art") // ChaseFrac 0
	for i := range p.insts {
		if p.insts[i].role == memChase {
			t.Fatalf("art has a chase load at %d", i)
		}
	}
}

func TestDestinationClassesConsistent(t *testing.T) {
	p := testProgram(t, "apsi")
	for i := range p.insts {
		si := &p.insts[i]
		switch si.op {
		case isa.OpStore, isa.OpBranch:
			if si.dest != isa.RegNone {
				t.Fatalf("inst %d (%v) has a destination", i, si.op)
			}
		case isa.OpFPAdd, isa.OpFPMult, isa.OpFPDiv, isa.OpFPSqrt:
			if !isa.IsFPReg(int(si.dest)) {
				t.Fatalf("FP op %d writes int register %d", i, si.dest)
			}
		case isa.OpIntAlu, isa.OpIntMult, isa.OpIntDiv:
			if isa.IsFPReg(int(si.dest)) {
				t.Fatalf("int op %d writes fp register %d", i, si.dest)
			}
		}
	}
}

func TestStreamIndicesWithinProfile(t *testing.T) {
	prof, _ := ProfileFor("art")
	p := synthesize(&prof, rng.New(1))
	for i := range p.insts {
		si := &p.insts[i]
		if si.role == memStream && int(si.streamIdx) >= prof.IndepMemPar {
			t.Fatalf("inst %d stream index %d out of %d", i, si.streamIdx, prof.IndepMemPar)
		}
	}
}

func TestSynthesisDeterministic(t *testing.T) {
	prof, _ := ProfileFor("gzip")
	a := synthesize(&prof, rng.New(5))
	b := synthesize(&prof, rng.New(5))
	if len(a.insts) != len(b.insts) {
		t.Fatal("lengths differ")
	}
	for i := range a.insts {
		if a.insts[i] != b.insts[i] {
			t.Fatalf("instruction %d differs", i)
		}
	}
}

func TestTableProfileSharesProgram(t *testing.T) {
	prof, _ := ProfileFor("mcf")
	a := MustNewGenerator(prof, 1)
	b := MustNewGenerator(prof, 2)
	if a.prog != b.prog {
		t.Fatal("two generators of one table profile built separate programs")
	}
	// The shared program is the one the profile would synthesize afresh.
	if want := synthesize(&prof, rng.New(hashName(prof.Name))); !reflect.DeepEqual(a.prog, want) {
		t.Fatal("shared program differs from a fresh synthesis")
	}
}

func TestModifiedProfileGetsOwnProgram(t *testing.T) {
	prof, _ := ProfileFor("mcf")
	mod := prof
	mod.Blocks++
	table := MustNewGenerator(prof, 1)
	own := MustNewGenerator(mod, 1)
	if own.prog == table.prog {
		t.Fatal("a modified copy of a table profile shares the table's program")
	}
	if len(own.prog.blockStart) != mod.Blocks {
		t.Fatalf("modified profile's program has %d blocks, want %d", len(own.prog.blockStart), mod.Blocks)
	}
	var x, y isa.TraceInst
	same := true
	for i := 0; i < 1000 && same; i++ {
		table.Next(&x)
		own.Next(&y)
		same = x == y
	}
	if same {
		t.Fatal("a modified profile replays the table profile's stream")
	}
}

// TestConcurrentNewGenerator builds generators for every table profile
// from many goroutines at once (run it under -race): all generators of a
// profile get one program.
func TestConcurrentNewGenerator(t *testing.T) {
	names := Names()
	const workers = 8
	progs := make([][]*program, workers)
	var wg sync.WaitGroup
	for w := range progs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, name := range names {
				prof, _ := ProfileFor(name)
				g, err := NewGenerator(prof, uint64(w))
				if err != nil {
					t.Error(err)
					return
				}
				progs[w] = append(progs[w], g.prog)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for w := 1; w < workers; w++ {
		for i, name := range names {
			if progs[w][i] != progs[0][i] {
				t.Fatalf("%s: goroutines %d and 0 got different programs", name, w)
			}
		}
	}
}
