// Package cache models the paper's memory hierarchy (Table 1): split L1
// instruction and data caches, a unified L2, a chunked-latency DRAM model,
// and an MSHR file at the L2 that merges and overlaps outstanding misses —
// the substrate for the Memory-Level Parallelism the two-level ROB exploits.
package cache

import "fmt"

// Config describes one set-associative cache.
type Config struct {
	Name     string
	SizeB    int // total bytes
	Assoc    int
	LineB    int // line size in bytes
	HitCycle int // hit latency
}

// Validate checks the geometry.
func (c *Config) Validate() error {
	if c.SizeB <= 0 || c.Assoc <= 0 || c.LineB <= 0 {
		return fmt.Errorf("cache %q: non-positive geometry", c.Name)
	}
	if c.SizeB%(c.Assoc*c.LineB) != 0 {
		return fmt.Errorf("cache %q: size %d not divisible by assoc*line", c.Name, c.SizeB)
	}
	sets := c.SizeB / (c.Assoc * c.LineB)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %q: set count %d not a power of two", c.Name, sets)
	}
	if c.LineB&(c.LineB-1) != 0 {
		return fmt.Errorf("cache %q: line size %d not a power of two", c.Name, c.LineB)
	}
	return nil
}

// Stats counts accesses per cache.
type Stats struct {
	Accesses uint64
	Misses   uint64
}

// MissRate returns misses/accesses (0 when idle).
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is a set-associative cache with true-LRU replacement. Tags are
// stored per way in flat arrays; there is no data storage (timing model
// only). The zero value is unusable; use New.
//
// Prewarm runs (insertRun) are recorded, not applied: a set is built
// from the recorded runs on its first lookup or fill, so a short
// simulation pays only for the sets it touches. built[s] records the
// cache generation and the number of runs set s reflects, packed as
// gen<<32 | runs; the set is current when that equals cur. Reset and
// Flush start a new generation, which makes every set stale at once.
type Cache struct {
	cfg      Config
	sets     int
	setMask  uint64
	lineBits uint
	tags     []uint64 // sets*assoc entries
	valid    []bool
	lru      []uint64 // last-touch stamp per way; smallest = LRU victim
	stamp    uint64
	stats    Stats

	runs  []prewarmRun // this generation's runs, in issue order
	built []uint64     // per set: gen<<32 | runs applied
	cur   uint64       // gen<<32 | len(runs)
	ord   []int        // victim-order scratch for build
}

// prewarmRun is one recorded insertRun: n consecutive lines from line
// first, the k-th of them (from 0) stamped stamp+k+1.
type prewarmRun struct {
	first, n, stamp uint64
}

// New builds a cache from a validated config.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.SizeB / (cfg.Assoc * cfg.LineB)
	c := &Cache{
		cfg:     cfg,
		sets:    sets,
		setMask: uint64(sets - 1),
		tags:    make([]uint64, sets*cfg.Assoc),
		valid:   make([]bool, sets*cfg.Assoc),
		lru:     make([]uint64, sets*cfg.Assoc),
		built:   make([]uint64, sets),
		cur:     1 << 32, // generation 1: every zero mark is stale
		ord:     make([]int, cfg.Assoc),
	}
	for b := cfg.LineB; b > 1; b >>= 1 {
		c.lineBits++
	}
	return c, nil
}

// MustNew is New for static configs; panics on error.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns the access counters.
func (c *Cache) Stats() Stats { return c.stats }

// Line returns the line-aligned address.
func (c *Cache) Line(addr uint64) uint64 { return addr >> c.lineBits }

func (c *Cache) setOf(line uint64) int { return int(line & c.setMask) }

// Access performs a lookup, fills on miss (LRU victim), and reports hit.
func (c *Cache) Access(addr uint64) bool {
	line := c.Line(addr)
	base := c.setBase(c.setOf(line))
	c.stats.Accesses++
	hitWay := -1
	for w := 0; w < c.cfg.Assoc; w++ {
		if c.valid[base+w] && c.tags[base+w] == line {
			hitWay = w
			break
		}
	}
	if hitWay >= 0 {
		c.touch(base, hitWay)
		return true
	}
	c.stats.Misses++
	c.fill(base, line)
	return false
}

// Probe reports whether addr currently hits, without changing what the
// cache holds or its statistics (it may build the set). Used by
// predictors and tests.
func (c *Cache) Probe(addr uint64) bool {
	line := c.Line(addr)
	base := c.setBase(c.setOf(line))
	for w := 0; w < c.cfg.Assoc; w++ {
		if c.valid[base+w] && c.tags[base+w] == line {
			return true
		}
	}
	return false
}

// Insert fills a line without counting an access (e.g. prefetch or fill
// from a lower level initiated elsewhere).
func (c *Cache) Insert(addr uint64) {
	line := c.Line(addr)
	c.fill(c.setBase(c.setOf(line)), line)
}

// insertRun inserts the n consecutive lines starting at addr's line, in
// ascending order, leaving the state n Insert calls would leave. It only
// records the run and advances the global stamp past it; each set takes
// its share of the run when it is next built (see build).
func (c *Cache) insertRun(addr uint64, n uint64) {
	if n == 0 {
		return
	}
	c.runs = append(c.runs, prewarmRun{first: c.Line(addr), n: n, stamp: c.stamp})
	c.stamp += n
	c.cur++
}

// setBase brings set s up to date and returns the index of its first
// way.
func (c *Cache) setBase(s int) int {
	base := s * c.cfg.Assoc
	if c.built[s] != c.cur {
		c.build(s, base)
	}
	return base
}

// build applies to set s, in issue order, the runs it does not reflect
// yet. A mark from an earlier generation means the set holds a previous
// life's lines: it starts empty, as New leaves it, and takes every run.
func (c *Cache) build(s, base int) {
	mark := c.built[s]
	applied := uint32(mark)
	if mark>>32 != c.cur>>32 {
		end := base + c.cfg.Assoc
		clear(c.tags[base:end])
		clear(c.valid[base:end])
		clear(c.lru[base:end])
		applied = 0
	}
	for _, r := range c.runs[applied:] {
		c.applyRun(s, base, r)
	}
	c.built[s] = c.cur
}

// applyRun writes set s's share of run r in closed form, touching each
// way at most once. It leaves the state r's Insert calls would leave:
//
//   - Consecutive lines walk the sets round-robin, so the set's fills
//     are run indices k = i, i+sets, i+2·sets, … below n, where i is the
//     run index of its first line; fill k is stamped r.stamp+k+1.
//   - A set's fills follow a fixed victim order: its ways by ascending
//     stamp, ties by index (invalid ways hold stamp 0, so they come
//     first, by index, as fill takes them). Each fill becomes the newest
//     line, so the order then repeats: the set's j-th fill lands in
//     ord[j mod assoc], and only its last assoc fills survive.
func (c *Cache) applyRun(s, base int, r prewarmRun) {
	i := (uint64(s) - r.first) & c.setMask
	if i >= r.n {
		return
	}
	sets, a := uint64(c.sets), uint64(c.cfg.Assoc)
	fills := (r.n-1-i)/sets + 1
	j := uint64(0)
	if fills > a {
		j = fills - a
	}
	lineMask := ^uint64(0) >> c.lineBits // Line of a wrapped address
	c.victimOrder(base, c.ord)
	for ; j < fills; j++ {
		k := i + j*sets
		w := base + c.ord[j%a]
		c.tags[w] = (r.first + k) & lineMask
		c.valid[w] = true
		c.lru[w] = r.stamp + k + 1
	}
}

// victimOrder sets ord to the ways of the set at base in the order
// successive fills would pick them as victims: least recently used
// first, ties by index. Invalid ways hold stamp 0 (build clears it),
// below every valid way's, so they come first, by index, as fill takes
// them.
func (c *Cache) victimOrder(base int, ord []int) {
	lru := c.lru[base : base+len(ord)]
	for w := range ord {
		i := w
		for i > 0 && lru[ord[i-1]] > lru[w] {
			ord[i] = ord[i-1]
			i--
		}
		ord[i] = w
	}
}

func (c *Cache) touch(base, way int) {
	c.stamp++
	c.lru[base+way] = c.stamp
}

func (c *Cache) fill(base int, line uint64) {
	victim := 0
	best := ^uint64(0)
	for w := 0; w < c.cfg.Assoc; w++ {
		if !c.valid[base+w] {
			victim = w
			break
		}
		if c.lru[base+w] < best {
			best = c.lru[base+w]
			victim = w
		}
	}
	c.tags[base+victim] = line
	c.valid[base+victim] = true
	c.touch(base, victim)
}

// Flush invalidates the whole cache, keeping the global stamp and the
// statistics. It starts a new generation: the recorded runs are dropped
// and every set is rebuilt empty on its next use.
func (c *Cache) Flush() {
	c.runs = c.runs[:0]
	gen := c.cur>>32 + 1
	if gen == 1<<32 {
		// The 32-bit generation wrapped: no old mark may match again.
		clear(c.built)
		gen = 1
	}
	c.cur = gen << 32
}

// Reset returns the cache to the state New leaves: empty, with a zero
// stamp and zero statistics. It costs the same whatever the cache held.
func (c *Cache) Reset() {
	c.Flush()
	c.stamp = 0
	c.stats = Stats{}
}
