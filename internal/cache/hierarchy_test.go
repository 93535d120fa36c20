package cache

import "testing"

func testHier(t *testing.T) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy(DefaultHierConfig())
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestDefaultHierConfigValid(t *testing.T) {
	cfg := DefaultHierConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.MemFirstChunk != 500 || cfg.MemInterChunk != 2 || cfg.BusBytes != 8 {
		t.Fatalf("Table-1 memory timing wrong: %+v", cfg)
	}
}

func TestHierConfigValidation(t *testing.T) {
	cfg := DefaultHierConfig()
	cfg.MSHRs = 0
	if err := cfg.Validate(); err == nil {
		t.Error("zero MSHRs accepted")
	}
	cfg = DefaultHierConfig()
	cfg.MemFirstChunk = 0
	if err := cfg.Validate(); err == nil {
		t.Error("zero memory latency accepted")
	}
}

func TestLoadLatencies(t *testing.T) {
	h := testHier(t)
	addr := uint64(0x1234560)

	// Cold: miss everywhere -> critical chunk after L1+L2 lookups + 500.
	res := h.Load(addr, 0)
	if !res.L1Miss || !res.L2Miss {
		t.Fatalf("cold access: %+v", res)
	}
	want := int64(1 + 10 + 500)
	if res.ReadyAt != want {
		t.Fatalf("cold load ready at %d, want %d", res.ReadyAt, want)
	}

	// Now resident in L1: hit in 1 cycle.
	res = h.Load(addr, 1000)
	if res.L1Miss || res.ReadyAt != 1001 {
		t.Fatalf("warm load: %+v", res)
	}
}

func TestL2HitLatency(t *testing.T) {
	h := testHier(t)
	base := uint64(0x40000)
	// Touch enough distinct L1 lines mapping over the L1 to evict base
	// while both stay in L2 (L2 line covers 4 L1 lines).
	h.Load(base, 0)
	// Five more lines into base's L1 set (stride = 32B line * 256 sets)
	// evict it from the 4-way L1D while its L2 line stays resident.
	for i := uint64(1); i <= 5; i++ {
		h.Load(base+i*32*256, 0)
	}
	res := h.Load(base, 100000)
	if res.L2Miss {
		t.Fatal("expected L2 hit after L1 eviction")
	}
	if res.L1Miss && res.ReadyAt != 100000+11 {
		t.Fatalf("L2 hit latency = %d", res.ReadyAt-100000)
	}
}

func TestMSHRMerge(t *testing.T) {
	h := testHier(t)
	a := h.Load(0x100000, 0)
	b := h.Load(0x100008, 3) // same 128B L2 line, later cycle
	if !a.L2Miss {
		t.Fatal("first access should miss")
	}
	if b.L2Miss {
		// second access hits L2 tags (fill is immediate in the tag model),
		// so it must NOT allocate a new MSHR entry
		t.Fatal("merged access counted as L2 miss")
	}
	if h.Stats().MSHRMerges != 0 && h.Stats().L2MissLoads != 1 {
		t.Fatalf("stats: %+v", h.Stats())
	}
}

func TestMSHRLimitDelaysMisses(t *testing.T) {
	cfg := DefaultHierConfig()
	cfg.MSHRs = 2
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r1 := h.Load(0x1_000000, 0)
	r2 := h.Load(0x2_000000, 0)
	r3 := h.Load(0x3_000000, 0) // third concurrent miss must stall
	if r1.MSHRStall || r2.MSHRStall {
		t.Fatal("first two misses stalled")
	}
	if !r3.MSHRStall {
		t.Fatal("third miss did not stall on full MSHRs")
	}
	if r3.ReadyAt <= r2.ReadyAt {
		t.Fatalf("stalled miss not delayed: %d <= %d", r3.ReadyAt, r2.ReadyAt)
	}
	if h.Stats().MSHRStalls != 1 {
		t.Fatalf("stats: %+v", h.Stats())
	}
}

func TestOutstandingMisses(t *testing.T) {
	h := testHier(t)
	h.Load(0x1_000000, 0)
	h.Load(0x2_000000, 0)
	if n := h.OutstandingMisses(10); n != 2 {
		t.Fatalf("outstanding = %d", n)
	}
	if n := h.OutstandingMisses(10_000); n != 0 {
		t.Fatalf("outstanding after completion = %d", n)
	}
}

func TestBusContentionSerializes(t *testing.T) {
	cfg := DefaultHierConfig()
	cfg.BusContention = true
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r1 := h.Load(0x1_000000, 0)
	r2 := h.Load(0x2_000000, 0)
	transfer := int64(cfg.L2.LineB/cfg.BusBytes) * int64(cfg.MemInterChunk)
	if r2.ReadyAt < r1.ReadyAt+transfer {
		t.Fatalf("bus did not serialize: %d then %d", r1.ReadyAt, r2.ReadyAt)
	}
	if h.Stats().BusQueued != 1 {
		t.Fatalf("stats: %+v", h.Stats())
	}
}

func TestBusContentionOffOverlaps(t *testing.T) {
	h := testHier(t)
	r1 := h.Load(0x1_000000, 0)
	r2 := h.Load(0x2_000000, 0)
	if r2.ReadyAt != r1.ReadyAt {
		t.Fatalf("misses did not overlap: %d vs %d", r1.ReadyAt, r2.ReadyAt)
	}
}

func TestStoreCommitFills(t *testing.T) {
	h := testHier(t)
	h.StoreCommit(0x9000)
	if !h.L1D.Probe(0x9000) {
		t.Fatal("store did not allocate in L1D")
	}
	if h.Stats().StoreAccesses != 1 {
		t.Fatalf("stats: %+v", h.Stats())
	}
}

func TestFetchPath(t *testing.T) {
	h := testHier(t)
	res := h.Fetch(0x400000, 0)
	if !res.L1Miss {
		t.Fatal("cold fetch hit")
	}
	res = h.Fetch(0x400000, 100)
	if res.L1Miss || res.ReadyAt != 101 {
		t.Fatalf("warm fetch: %+v", res)
	}
}

func TestPrewarm(t *testing.T) {
	h := testHier(t)
	h.Prewarm(0x10000, 64*1024, false)
	res := h.Load(0x10000, 0)
	if res.L1Miss || res.L2Miss {
		t.Fatal("prewarmed data missed")
	}
	// The leading 32 KB went to the L1D too; deeper lines only to the L2.
	deep := h.Load(0x10000+48*1024, 0)
	if !deep.L1Miss || deep.L2Miss {
		t.Fatalf("deep prewarmed line: %+v", deep)
	}
	h.Prewarm(0x900000, 4096, true)
	f := h.Fetch(0x900000, 0)
	if f.L1Miss {
		t.Fatal("prewarmed code missed L1I")
	}
	// Prewarm must not disturb stats: only the one demand access that
	// missed the L1D above reached the L2.
	if h.L2.Stats().Accesses != 1 {
		t.Fatalf("prewarm counted accesses: %+v", h.L2.Stats())
	}
}

func TestPrewarmCapsAtCapacity(t *testing.T) {
	h := testHier(t)
	// A 64MB region must not loop 512k times or evict itself completely:
	// only the leading L2-capacity worth is inserted.
	h.Prewarm(0x1_0000000, 64<<20, false)
	if !h.L2.Probe(0x1_0000000) {
		t.Fatal("leading line of big region not resident")
	}
}

// TestHierarchyResetMatchesNew: a hierarchy Reset after use answers a
// workload exactly as a new one does, with the bus contended and the
// MSHR file small enough to fill, so leftover bus, MSHR or cache state
// would show.
func TestHierarchyResetMatchesNew(t *testing.T) {
	cfg := DefaultHierConfig()
	cfg.BusContention = true
	cfg.MSHRs = 4
	workload := func(h *Hierarchy) (out []AccessResult) {
		h.Prewarm(0x40_0000, 3<<20, false)
		h.Prewarm(0x90_0000, 16<<10, true)
		for i := uint64(0); i < 64; i++ {
			now := int64(i * 3)
			out = append(out, h.Load(0x40_0000+i*4096+i*i*128, now), h.Fetch(0x90_0000+i*64, now))
			h.StoreCommit(0x100_0000 + i*256)
		}
		return out
	}
	used, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	workload(used)
	used.Reset()
	fresh, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, got := workload(fresh), workload(used)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("access %d after Reset: %+v, on a new hierarchy %+v", i, got[i], want[i])
		}
	}
	if used.Stats() != fresh.Stats() || used.L1I.Stats() != fresh.L1I.Stats() ||
		used.L1D.Stats() != fresh.L1D.Stats() || used.L2.Stats() != fresh.L2.Stats() {
		t.Fatalf("stats after Reset differ from a new hierarchy's")
	}
}
