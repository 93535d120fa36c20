package cache

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
)

// runOp is one step of an insertRun exactness case: either a run of n
// consecutive line inserts from addr, or one Access of addr.
type runOp struct {
	access bool
	addr   uint64
	n      uint64
}

// checkInsertRun applies ops to two caches of geometry cfg, one through
// insertRun and one through the Insert loop it replaces, and requires
// the two to be identical after every step and to give the same hit/miss
// answer to every Access.
func checkInsertRun(t *testing.T, cfg Config, ops []runOp) {
	t.Helper()
	fast, loop := MustNew(cfg), MustNew(cfg)
	for i, op := range ops {
		if op.access {
			if got, want := fast.Access(op.addr), loop.Access(op.addr); got != want {
				t.Fatalf("%+v op %d: Access(%#x) = %v after insertRun, %v after the loop", cfg, i, op.addr, got, want)
			}
		} else {
			fast.insertRun(op.addr, op.n)
			for k := uint64(0); k < op.n; k++ {
				loop.Insert(op.addr + k*uint64(cfg.LineB))
			}
		}
		if !reflect.DeepEqual(fast, loop) {
			t.Fatalf("%+v op %d (%+v): insertRun state differs from the Insert loop:\nrun:  %+v\nloop: %+v", cfg, i, op, fast, loop)
		}
	}
}

func TestInsertRunMatchesInsertLoop(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for c := 0; c < 400; c++ {
		sets := 1 << r.Intn(5)
		assoc := 1 + r.Intn(8)
		lineB := 1 << (3 + r.Intn(4))
		cfg := Config{Name: "t", SizeB: sets * assoc * lineB, Assoc: assoc, LineB: lineB}
		capLines := uint64(sets * assoc)
		// A small address space makes regions overlap and Accesses hit.
		space := 4 * capLines * uint64(lineB)
		var ops []runOp
		for len(ops) < 12 {
			if r.Intn(3) == 0 {
				ops = append(ops, runOp{access: true, addr: uint64(r.Int63n(int64(space)))})
				continue
			}
			var n uint64
			switch r.Intn(4) {
			case 0: // below capacity: the Insert loop itself
				n = uint64(r.Int63n(int64(capLines)))
			case 1: // exactly capacity, as Prewarm's capped regions are
				n = capLines
			default: // up to 3x capacity
				n = capLines + uint64(r.Int63n(int64(2*capLines+1)))
			}
			// Unaligned bases: any byte address.
			ops = append(ops, runOp{addr: uint64(r.Int63n(int64(space))), n: n})
		}
		checkInsertRun(t, cfg, ops)
	}
}

// FuzzInsertRun checks insertRun against the Insert loop on fuzzer-drawn
// geometries and op sequences. Each op takes 5 bytes: a kind byte (bit 0
// selects Access; bit 1 moves the address next to the top of the address
// space, so a run wraps past zero), a 16-bit address and a 16-bit length
// taken modulo 3x capacity + 1.
func FuzzInsertRun(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(1), []byte{0, 5, 0, 32, 0, 1, 9, 0, 0, 0, 0, 1, 0, 48, 0})
	f.Add(uint8(0), uint8(7), uint8(0), []byte{2, 0xf0, 0xff, 40, 0})
	f.Add(uint8(4), uint8(1), uint8(3), []byte{0, 0, 0, 0, 1, 1, 3, 0, 0, 0, 0, 0x80, 0, 0, 2})
	f.Fuzz(func(t *testing.T, setsLog, assocB, lineLog uint8, data []byte) {
		sets := 1 << (setsLog % 5)
		assoc := 1 + int(assocB%8)
		lineB := 1 << (3 + lineLog%4)
		cfg := Config{Name: "f", SizeB: sets * assoc * lineB, Assoc: assoc, LineB: lineB}
		capLines := uint64(sets * assoc)
		var ops []runOp
		for ; len(data) >= 5 && len(ops) < 32; data = data[5:] {
			addr := uint64(binary.LittleEndian.Uint16(data[1:]))
			if data[0]&2 != 0 {
				addr = ^addr
			}
			ops = append(ops, runOp{
				access: data[0]&1 != 0,
				addr:   addr,
				n:      uint64(binary.LittleEndian.Uint16(data[3:])) % (3*capLines + 1),
			})
		}
		checkInsertRun(t, cfg, ops)
	})
}
