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
	set := c.setOf(line)
	base := set * c.cfg.Assoc
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

// Probe reports whether addr currently hits, without updating state or
// statistics. Used by predictors and tests.
func (c *Cache) Probe(addr uint64) bool {
	line := c.Line(addr)
	base := c.setOf(line) * c.cfg.Assoc
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
	c.fill(c.setOf(line)*c.cfg.Assoc, line)
}

// insertRun inserts the n consecutive lines starting at addr's line, in
// ascending order, leaving exactly the state n Insert calls would leave.
// A run shorter than the cache's sets×assoc lines is that Insert loop. A
// longer run overwrites every way of every set, so it is written in
// closed form, set by set, touching each way once:
//
//   - A set's fills follow a fixed victim order: its invalid ways by
//     index, then its valid ways by ascending stamp.
//     Each fill becomes the newest line, so the order then repeats, and
//     the set's j-th fill of the run lands in order[j mod assoc].
//   - Consecutive lines walk the sets round-robin: run index k is the
//     (k/sets)-th fill of set (first+k) mod sets, and its stamp is the
//     global stamp plus k+1. Only each set's last assoc fills survive.
func (c *Cache) insertRun(addr uint64, n uint64) {
	assoc := c.cfg.Assoc
	capLines := uint64(c.sets * assoc)
	lineB := uint64(c.cfg.LineB)
	if n < capLines {
		for k := uint64(0); k < n; k++ {
			c.Insert(addr + k*lineB)
		}
		return
	}
	first := c.Line(addr)
	lineMask := ^uint64(0) >> c.lineBits // Line of a wrapped address
	sets, a := uint64(c.sets), uint64(assoc)
	q, rem := n/sets, n%sets
	ord := make([]int, assoc)
	for s := 0; s < c.sets; s++ {
		// r is the run index of the set's first line. The set takes
		// ceil((n-r)/sets) lines, all but the last assoc of them dead.
		r := (uint64(s) - first) & c.setMask
		dead := q - a
		if r < rem {
			dead++
		}
		k := r + dead*sets // run index of the set's first survivor
		o := int(dead % a)
		base := s * assoc
		c.victimOrder(base, ord)
		for range ord {
			w := base + ord[o]
			c.tags[w] = (first + k) & lineMask
			c.valid[w] = true
			c.lru[w] = c.stamp + k + 1
			k += sets
			if o++; o == assoc {
				o = 0
			}
		}
	}
	c.stamp += n
}

// victimOrder sets ord to the ways of the set at base in the order
// successive fills would pick them as victims: least recently used
// first, ties by index. Invalid ways hold stamp 0 (New and Flush clear
// it), below every valid way's, so they come first, by index, as fill
// takes them.
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

// Flush invalidates the whole cache (tests only).
func (c *Cache) Flush() {
	for i := range c.valid {
		c.valid[i] = false
		c.lru[i] = 0
	}
}
