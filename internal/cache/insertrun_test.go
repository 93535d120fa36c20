package cache

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
)

// opKind is one step of a lazy-prewarm exactness case.
type opKind uint8

const (
	opRun    opKind = iota // insertRun of n lines from addr
	opAccess               // Access(addr)
	opProbe                // Probe(addr)
	opCheck                // build every set, then compare whole states
	opReset                // Reset, then keep using the cache
	numOpKinds
)

type runOp struct {
	kind opKind
	addr uint64
	n    uint64
}

// buildAll brings every set up to date, so the cache's arrays hold
// exactly what an eager cache's would.
func (c *Cache) buildAll() {
	for s := 0; s < c.sets; s++ {
		c.setBase(s)
	}
}

// requireSameState builds every set of lazy and requires its tags,
// valid bits, LRU stamps, global stamp and statistics to equal eager's.
func requireSameState(t *testing.T, cfg Config, i int, lazy, eager *Cache) {
	t.Helper()
	lazy.buildAll()
	eager.buildAll()
	for _, f := range []struct {
		name       string
		lazy, want any
	}{
		{"tags", lazy.tags, eager.tags},
		{"valid", lazy.valid, eager.valid},
		{"lru", lazy.lru, eager.lru},
		{"stamp", lazy.stamp, eager.stamp},
		{"stats", lazy.stats, eager.stats},
	} {
		if !reflect.DeepEqual(f.lazy, f.want) {
			t.Fatalf("%+v op %d: %s after lazy runs %v, after the Insert loop %v", cfg, i, f.name, f.lazy, f.want)
		}
	}
}

// checkInsertRun applies ops to two caches of geometry cfg: lazy takes
// runs through insertRun, eager through the Insert loop insertRun
// stands for, and is rebuilt by New where lazy is Reset. Every Access
// and Probe must answer alike; at each check op and at the end, once
// every set is built, the two states must be equal.
func checkInsertRun(t *testing.T, cfg Config, ops []runOp) {
	t.Helper()
	lazy, eager := MustNew(cfg), MustNew(cfg)
	for i, op := range ops {
		switch op.kind {
		case opRun:
			lazy.insertRun(op.addr, op.n)
			for k := uint64(0); k < op.n; k++ {
				eager.Insert(op.addr + k*uint64(cfg.LineB))
			}
		case opAccess:
			if got, want := lazy.Access(op.addr), eager.Access(op.addr); got != want {
				t.Fatalf("%+v op %d: Access(%#x) = %v after lazy runs, %v after the Insert loop", cfg, i, op.addr, got, want)
			}
		case opProbe:
			if got, want := lazy.Probe(op.addr), eager.Probe(op.addr); got != want {
				t.Fatalf("%+v op %d: Probe(%#x) = %v after lazy runs, %v after the Insert loop", cfg, i, op.addr, got, want)
			}
		case opCheck:
			requireSameState(t, cfg, i, lazy, eager)
		case opReset:
			lazy.Reset()
			eager = MustNew(cfg)
		}
	}
	requireSameState(t, cfg, len(ops), lazy, eager)
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
		for len(ops) < 16 {
			// Any byte address: run bases are unaligned.
			op := runOp{addr: uint64(r.Int63n(int64(space)))}
			switch r.Intn(16) {
			case 0, 1, 2, 3:
				op.kind = opAccess
			case 4, 5:
				op.kind = opProbe
			case 6, 7:
				op.kind = opCheck
			case 8:
				op.kind = opReset
			default:
				switch r.Intn(4) {
				case 0: // below capacity
					op.n = uint64(r.Int63n(int64(capLines)))
				case 1: // exactly capacity, as Prewarm's capped regions are
					op.n = capLines
				default: // up to 3x capacity
					op.n = capLines + uint64(r.Int63n(int64(2*capLines+1)))
				}
			}
			ops = append(ops, op)
		}
		checkInsertRun(t, cfg, ops)
	}
}

// FuzzInsertRun checks lazy insertRun against the Insert loop on
// fuzzer-drawn geometries and op sequences. Each op takes 5 bytes: a
// kind byte (its low bits pick the op, mod numOpKinds; bit 7 moves the
// address next to the top of the address space, so a run wraps past
// zero), a 16-bit address and a 16-bit run length taken modulo 3x
// capacity + 1.
func FuzzInsertRun(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(1), []byte{0, 5, 0, 32, 0, 1, 9, 0, 0, 0, 0, 1, 0, 48, 0})
	f.Add(uint8(0), uint8(7), uint8(0), []byte{0x80, 0xf0, 0xff, 40, 0})
	f.Add(uint8(4), uint8(1), uint8(3), []byte{0, 0, 0, 0, 1, 1, 3, 0, 0, 0, 0, 0x80, 0, 0, 2})
	// A run, a lookup that builds one set, a second run over the built
	// set, a reset and a run into the reused cache.
	f.Add(uint8(2), uint8(2), uint8(0), []byte{0, 0, 0, 24, 0, 1, 8, 0, 0, 0, 0, 4, 0, 30, 0, 4, 0, 0, 0, 0, 0, 3, 0, 9, 0, 2, 8, 0, 0, 0})
	f.Fuzz(func(t *testing.T, setsLog, assocB, lineLog uint8, data []byte) {
		sets := 1 << (setsLog % 5)
		assoc := 1 + int(assocB%8)
		lineB := 1 << (3 + lineLog%4)
		cfg := Config{Name: "f", SizeB: sets * assoc * lineB, Assoc: assoc, LineB: lineB}
		capLines := uint64(sets * assoc)
		var ops []runOp
		for ; len(data) >= 5 && len(ops) < 32; data = data[5:] {
			addr := uint64(binary.LittleEndian.Uint16(data[1:]))
			if data[0]&0x80 != 0 {
				addr = ^addr
			}
			op := runOp{kind: opKind(data[0]&0x7f) % numOpKinds, addr: addr}
			if op.kind == opRun {
				op.n = uint64(binary.LittleEndian.Uint16(data[3:])) % (3*capLines + 1)
			}
			ops = append(ops, op)
		}
		checkInsertRun(t, cfg, ops)
	})
}
