package cache

import "fmt"

// HierConfig describes the full Table-1 memory hierarchy.
type HierConfig struct {
	L1I Config
	L1D Config
	L2  Config

	MemFirstChunk int // cycles to the first (critical) chunk
	MemInterChunk int // cycles between subsequent chunks
	BusBytes      int // bus width in bytes (chunk size)

	MSHRs int // outstanding L2 misses supported (MLP limit)

	// BusContention serializes line transfers on the memory data bus.
	// The paper's simulator uses the bus parameters only for latency
	// arithmetic (500 + chunk*2), so this defaults to off; the ablation
	// benches measure its effect.
	BusContention bool
}

// DefaultHierConfig returns the paper's Table-1 hierarchy: 64 KB 2-way
// 64 B-line L1I (1 cycle); 32 KB 4-way 32 B-line L1D (1 cycle); 2 MB 8-way
// 128 B-line unified L2 (10 cycles); 64-bit bus, 500-cycle first chunk,
// 2-cycle interchunk DRAM. The MSHR count is not given in the paper; 16
// supports ample miss overlap and is swept in the ablation benches.
func DefaultHierConfig() HierConfig {
	return HierConfig{
		L1I:           Config{Name: "L1I", SizeB: 64 * 1024, Assoc: 2, LineB: 64, HitCycle: 1},
		L1D:           Config{Name: "L1D", SizeB: 32 * 1024, Assoc: 4, LineB: 32, HitCycle: 1},
		L2:            Config{Name: "L2", SizeB: 2 * 1024 * 1024, Assoc: 8, LineB: 128, HitCycle: 10},
		MemFirstChunk: 500,
		MemInterChunk: 2,
		BusBytes:      8,
		MSHRs:         64,
	}
}

// Validate checks the hierarchy configuration.
func (c *HierConfig) Validate() error {
	for _, cc := range []*Config{&c.L1I, &c.L1D, &c.L2} {
		if err := cc.Validate(); err != nil {
			return err
		}
	}
	if c.MemFirstChunk <= 0 || c.MemInterChunk < 0 || c.BusBytes <= 0 {
		return fmt.Errorf("cache: bad memory timing")
	}
	if c.MSHRs < 1 {
		return fmt.Errorf("cache: need at least one MSHR")
	}
	return nil
}

// mshrEntry tracks one outstanding L2 line fill.
type mshrEntry struct {
	line   uint64
	fillAt int64 // cycle the full line is present in L2
	dataAt int64 // cycle the critical chunk is available to consumers
}

// HierStats aggregates hierarchy-level counters beyond per-cache stats.
type HierStats struct {
	L2MissLoads   uint64 // demand loads that missed in L2
	MSHRMerges    uint64 // misses merged into an outstanding fill
	MSHRStalls    uint64 // misses delayed waiting for a free MSHR
	BusQueued     uint64 // line fills delayed behind the memory data bus
	StoreAccesses uint64
}

// Hierarchy is the timing model for the full memory system. It is not
// concurrency-safe; the simulator drives it from a single goroutine.
type Hierarchy struct {
	cfg       HierConfig
	L1I       *Cache
	L1D       *Cache
	L2        *Cache
	mshrs     []mshrEntry
	busFreeAt int64 // memory data bus: one line transfer at a time
	stats     HierStats
}

// NewHierarchy builds the hierarchy.
func NewHierarchy(cfg HierConfig) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h := &Hierarchy{cfg: cfg}
	h.L1I = MustNew(cfg.L1I)
	h.L1D = MustNew(cfg.L1D)
	h.L2 = MustNew(cfg.L2)
	h.mshrs = make([]mshrEntry, 0, cfg.MSHRs)
	return h, nil
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierConfig { return h.cfg }

// Stats returns hierarchy-level counters.
func (h *Hierarchy) Stats() HierStats { return h.stats }

// AccessResult reports the outcome of a timed access.
type AccessResult struct {
	ReadyAt   int64 // cycle at which the data is available
	L1Miss    bool
	L2Miss    bool
	MSHRStall bool // delayed because all MSHRs were busy
}

// transferCycles is how long one line occupies the memory data bus
// (Table 1: 64-bit bus, 2-cycle interchunk — 32 cycles for a 128 B line).
func (h *Hierarchy) transferCycles() int64 {
	chunks := h.cfg.L2.LineB / h.cfg.BusBytes
	if chunks < 1 {
		chunks = 1
	}
	return int64(chunks) * int64(h.cfg.MemInterChunk)
}

// l2Miss books an L2 line fill through the MSHR file and returns when the
// critical chunk is available, whether it merged, and whether it stalled.
func (h *Hierarchy) l2Miss(line uint64, now int64) (dataAt int64, merged, stalled bool) {
	// Merge with an outstanding fill of the same line.
	for i := range h.mshrs {
		e := &h.mshrs[i]
		if e.line == line && e.fillAt > now {
			h.stats.MSHRMerges++
			return e.dataAt, true, false
		}
	}
	// Reclaim completed entries lazily.
	live := h.mshrs[:0]
	for _, e := range h.mshrs {
		if e.fillAt > now {
			live = append(live, e)
		}
	}
	h.mshrs = live

	start := now
	if len(h.mshrs) >= h.cfg.MSHRs {
		// All miss-handling registers busy: the request waits for the
		// earliest fill to retire its entry.
		earliest := h.mshrs[0].fillAt
		for _, e := range h.mshrs[1:] {
			if e.fillAt < earliest {
				earliest = e.fillAt
			}
		}
		start = earliest
		stalled = true
		h.stats.MSHRStalls++
		// Evict the entry that completes at 'earliest' to make room.
		for i := range h.mshrs {
			if h.mshrs[i].fillAt == earliest {
				h.mshrs[i] = h.mshrs[len(h.mshrs)-1]
				h.mshrs = h.mshrs[:len(h.mshrs)-1]
				break
			}
		}
	}
	// DRAM access latency overlaps across banks, but the data bus
	// serializes line transfers: across-the-board large windows saturate
	// it and queue behind each other — the shared-resource pressure the
	// paper attributes to blindly enlarged ROBs.
	transfer := h.transferCycles()
	// Unloaded, the critical chunk arrives MemFirstChunk cycles after the
	// request and the transfer occupies the bus from just before it.
	slot := start + int64(h.cfg.MemFirstChunk) - int64(h.cfg.MemInterChunk)
	if h.cfg.BusContention && slot < h.busFreeAt {
		slot = h.busFreeAt
		h.stats.BusQueued++
	}
	h.busFreeAt = slot + transfer
	dataAt = slot + int64(h.cfg.MemInterChunk) // critical chunk first
	h.mshrs = append(h.mshrs, mshrEntry{line: line, fillAt: slot + transfer, dataAt: dataAt})
	return dataAt, false, stalled
}

// Load performs a timed demand-load access at cycle now.
func (h *Hierarchy) Load(addr uint64, now int64) AccessResult {
	res := AccessResult{}
	if h.L1D.Access(addr) {
		res.ReadyAt = now + int64(h.cfg.L1D.HitCycle)
		return res
	}
	res.L1Miss = true
	afterL1 := now + int64(h.cfg.L1D.HitCycle)
	if h.L2.Access(addr) {
		res.ReadyAt = afterL1 + int64(h.cfg.L2.HitCycle)
		return res
	}
	res.L2Miss = true
	h.stats.L2MissLoads++
	missAt := afterL1 + int64(h.cfg.L2.HitCycle)
	dataAt, _, stalled := h.l2Miss(h.L2.Line(addr), missAt)
	res.MSHRStall = stalled
	res.ReadyAt = dataAt
	return res
}

// StoreCommit performs the cache updates for a store retiring from the
// store buffer. Stores are off the critical path (write-allocate through a
// write buffer), so no latency is returned; misses do not hold MSHRs.
func (h *Hierarchy) StoreCommit(addr uint64) {
	h.stats.StoreAccesses++
	if h.L1D.Access(addr) {
		return
	}
	h.L2.Access(addr)
}

// Fetch performs a timed instruction-fetch access at cycle now.
func (h *Hierarchy) Fetch(pc uint64, now int64) AccessResult {
	res := AccessResult{}
	if h.L1I.Access(pc) {
		res.ReadyAt = now + int64(h.cfg.L1I.HitCycle)
		return res
	}
	res.L1Miss = true
	afterL1 := now + int64(h.cfg.L1I.HitCycle)
	if h.L2.Access(pc) {
		res.ReadyAt = afterL1 + int64(h.cfg.L2.HitCycle)
		return res
	}
	res.L2Miss = true
	missAt := afterL1 + int64(h.cfg.L2.HitCycle)
	dataAt, _, stalled := h.l2Miss(h.L2.Line(pc), missAt)
	res.MSHRStall = stalled
	res.ReadyAt = dataAt
	return res
}

// Prewarm installs a region's lines into the hierarchy without touching
// access statistics, so short simulations measure steady-state behaviour.
// Data regions fill the L2 (bounded by its capacity — a region larger than
// the L2 keeps missing, which is the point) and the leading lines fill the
// L1D; code regions fill the L1I and L2.
func (h *Hierarchy) Prewarm(base, size uint64, code bool) {
	if size == 0 {
		return
	}
	l2Cap := uint64(h.cfg.L2.SizeB)
	n := size
	if n > l2Cap {
		n = l2Cap
	}
	h.L2.insertRun(base, lines(n, h.cfg.L2.LineB))
	l1 := h.L1D
	if code {
		l1 = h.L1I
	}
	n1 := size
	if n1 > uint64(l1.Config().SizeB) {
		n1 = uint64(l1.Config().SizeB)
	}
	l1.insertRun(base, lines(n1, l1.Config().LineB))
}

// lines is the number of lineB-byte steps an n-byte region spans from its
// base: ceil(n / lineB).
func lines(n uint64, lineB int) uint64 {
	return (n + uint64(lineB) - 1) / uint64(lineB)
}

// OutstandingMisses reports the number of line fills in flight at cycle now.
func (h *Hierarchy) OutstandingMisses(now int64) int {
	n := 0
	for _, e := range h.mshrs {
		if e.fillAt > now {
			n++
		}
	}
	return n
}
