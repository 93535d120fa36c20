// Package predictor implements the front-end predictors of Table 1: a
// per-thread-history gShare branch direction predictor, a 2-way
// set-associative BTB, and the 2-bit load-hit predictor used for
// speculative scheduling of load consumers.
package predictor

import "fmt"

// twoBit is a saturating 2-bit counter vector, init weakly-taken (2).
type twoBit []uint8

func newTwoBit(n int, init uint8) twoBit {
	t := make(twoBit, n)
	for i := range t {
		t[i] = init
	}
	return t
}

func (t twoBit) taken(i int) bool { return t[i] >= 2 }

func (t twoBit) update(i int, taken bool) {
	if taken {
		if t[i] < 3 {
			t[i]++
		}
	} else if t[i] > 0 {
		t[i]--
	}
}

// GShare is a gShare direction predictor with a global history register per
// thread (Table 1: 2K entries, 10-bit history per thread).
type GShare struct {
	table   twoBit
	mask    uint64
	histLen uint
	hist    []uint64 // per thread
	stats   GShareStats
}

// GShareStats counts prediction outcomes.
type GShareStats struct {
	Lookups  uint64
	Mispreds uint64
}

// NewGShare builds a predictor with the given table size (power of two),
// history length in bits, and thread count.
func NewGShare(entries int, histBits uint, threads int) (*GShare, error) {
	if entries <= 0 || entries&(entries-1) != 0 {
		return nil, fmt.Errorf("predictor: gshare entries %d not a power of two", entries)
	}
	if threads < 1 {
		return nil, fmt.Errorf("predictor: need at least one thread")
	}
	return &GShare{
		table:   newTwoBit(entries, 2),
		mask:    uint64(entries - 1),
		histLen: histBits,
		hist:    make([]uint64, threads),
	}, nil
}

func (g *GShare) index(pc, hist uint64) int {
	return int(((pc >> 2) ^ hist) & g.mask)
}

// Hist returns tid's current (speculative) global history.
func (g *GShare) Hist(tid int) uint64 { return g.hist[tid] }

// SetHist overwrites tid's history; used to repair it after a squash,
// passing the snapshot taken at the oldest squashed branch's prediction.
func (g *GShare) SetHist(tid int, hist uint64) {
	g.hist[tid] = hist & ((1 << g.histLen) - 1)
}

// Predict returns the predicted direction for the branch at pc using the
// supplied history snapshot (normally Hist(tid) at fetch time).
func (g *GShare) Predict(pc, hist uint64) bool {
	g.stats.Lookups++
	return g.table.taken(g.index(pc, hist))
}

// PushHist shifts one (speculative) outcome into tid's history; the front
// end calls it right after Predict with the predicted direction.
func (g *GShare) PushHist(tid int, taken bool) {
	bit := uint64(0)
	if taken {
		bit = 1
	}
	g.hist[tid] = ((g.hist[tid] << 1) | bit) & ((1 << g.histLen) - 1)
}

// Update trains the table at branch resolution. hist must be the history
// snapshot used for the prediction so the same entry is trained.
func (g *GShare) Update(pc, hist uint64, taken, predicted bool) {
	g.table.update(g.index(pc, hist), taken)
	if taken != predicted {
		g.stats.Mispreds++
	}
}

// Stats returns prediction counters.
func (g *GShare) Stats() GShareStats { return g.stats }

// BTB is a 2-way set-associative branch target buffer (Table 1: 2048
// entries, 2-way).
type BTB struct {
	sets    int
	tags    []uint64
	targets []uint64
	valid   []bool
	lru     []uint64 // last-touch stamp; smallest = victim
	stamp   uint64
	assoc   int
}

// NewBTB builds a BTB with the given total entries and associativity.
func NewBTB(entries, assoc int) (*BTB, error) {
	if entries <= 0 || assoc <= 0 || entries%assoc != 0 {
		return nil, fmt.Errorf("predictor: bad BTB geometry %d/%d", entries, assoc)
	}
	sets := entries / assoc
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("predictor: BTB set count %d not a power of two", sets)
	}
	return &BTB{
		sets:    sets,
		assoc:   assoc,
		tags:    make([]uint64, entries),
		targets: make([]uint64, entries),
		valid:   make([]bool, entries),
		lru:     make([]uint64, entries),
	}, nil
}

// Reset returns the BTB to the state NewBTB leaves: every entry invalid
// and the LRU clock at zero.
func (b *BTB) Reset() {
	clear(b.tags)
	clear(b.targets)
	clear(b.valid)
	clear(b.lru)
	b.stamp = 0
}

func (b *BTB) set(pc uint64) int { return int((pc >> 2) & uint64(b.sets-1)) }

// Lookup returns the predicted target for pc, if present.
func (b *BTB) Lookup(pc uint64) (uint64, bool) {
	base := b.set(pc) * b.assoc
	for w := 0; w < b.assoc; w++ {
		if b.valid[base+w] && b.tags[base+w] == pc {
			b.touch(base, w)
			return b.targets[base+w], true
		}
	}
	return 0, false
}

// Update installs or refreshes the target for pc.
func (b *BTB) Update(pc, target uint64) {
	base := b.set(pc) * b.assoc
	victim := -1
	best := ^uint64(0)
	for w := 0; w < b.assoc; w++ {
		if b.valid[base+w] && b.tags[base+w] == pc {
			b.targets[base+w] = target
			b.touch(base, w)
			return
		}
		if !b.valid[base+w] {
			if victim < 0 || best != 0 {
				victim = w
				best = 0
			}
			continue
		}
		if b.lru[base+w] < best {
			best = b.lru[base+w]
			victim = w
		}
	}
	b.tags[base+victim] = pc
	b.targets[base+victim] = target
	b.valid[base+victim] = true
	b.touch(base, victim)
}

func (b *BTB) touch(base, way int) {
	b.stamp++
	b.lru[base+way] = b.stamp
}

// LoadHit is the Table-1 load-hit predictor: 2-bit counters, 1K entries,
// indexed by PC hashed with an 8-bit per-thread global pattern of recent
// load outcomes. It predicts whether a load will hit in the L1 data cache,
// enabling speculative early wakeup of its consumers.
type LoadHit struct {
	table twoBit
	mask  uint64
	hist  []uint64
	stats LoadHitStats
}

// LoadHitStats counts load-hit prediction outcomes.
type LoadHitStats struct {
	Lookups  uint64
	Mispreds uint64
}

// NewLoadHit builds the predictor for the given thread count.
func NewLoadHit(entries int, threads int) (*LoadHit, error) {
	if entries <= 0 || entries&(entries-1) != 0 {
		return nil, fmt.Errorf("predictor: load-hit entries %d not a power of two", entries)
	}
	return &LoadHit{
		table: newTwoBit(entries, 3), // start strongly "hit"
		mask:  uint64(entries - 1),
		hist:  make([]uint64, threads),
	}, nil
}

func (l *LoadHit) index(tid int, pc uint64) int {
	return int(((pc >> 2) ^ (l.hist[tid] & 0xff)) & l.mask)
}

// Predict returns whether the load at pc is predicted to hit L1.
func (l *LoadHit) Predict(tid int, pc uint64) bool {
	l.stats.Lookups++
	return l.table.taken(l.index(tid, pc))
}

// Update trains with the observed outcome (hit = true).
func (l *LoadHit) Update(tid int, pc uint64, hit, predicted bool) {
	idx := l.index(tid, pc)
	l.table.update(idx, hit)
	bit := uint64(0)
	if hit {
		bit = 1
	}
	l.hist[tid] = (l.hist[tid] << 1) | bit
	if hit != predicted {
		l.stats.Mispreds++
	}
}

// Stats returns prediction counters.
func (l *LoadHit) Stats() LoadHitStats { return l.stats }

// MLP is a last-value predictor of the memory-level parallelism of a miss
// episode, after Eyerman & Eeckhout's MLP-aware fetch policy [25]: for
// each static load that starts an L2-miss episode it remembers how many
// further misses from the same thread overlapped it. A thread whose
// current episode is predicted MLP <= 1 gains nothing from fetching
// deeper and can release its fetch slots.
type MLP struct {
	table []int16 // -1 = untrained
	mask  uint64
	stats MLPStats
}

// MLPStats counts MLP predictor activity.
type MLPStats struct {
	Lookups   uint64
	Untrained uint64
}

// NewMLP builds a predictor with entries slots (power of two).
func NewMLP(entries int) (*MLP, error) {
	if entries <= 0 || entries&(entries-1) != 0 {
		return nil, fmt.Errorf("predictor: MLP entries %d not a power of two", entries)
	}
	m := &MLP{table: make([]int16, entries), mask: uint64(entries - 1)}
	for i := range m.table {
		m.table[i] = -1
	}
	return m, nil
}

func (m *MLP) index(pc uint64) int { return int((pc >> 2) & m.mask) }

// Predict returns the remembered episode MLP for the load at pc. Untrained
// loads predict optimistically (MLP assumed present) so that cold threads
// are not starved before any evidence exists.
func (m *MLP) Predict(pc uint64) int {
	m.stats.Lookups++
	v := m.table[m.index(pc)]
	if v < 0 {
		m.stats.Untrained++
		return 1 << 14 // optimistic: assume parallelism
	}
	return int(v)
}

// Train stores the observed episode MLP for the load at pc.
func (m *MLP) Train(pc uint64, mlp int) {
	if mlp > 0x7fff {
		mlp = 0x7fff
	}
	m.table[m.index(pc)] = int16(mlp)
}

// Stats returns predictor counters.
func (m *MLP) Stats() MLPStats { return m.stats }
