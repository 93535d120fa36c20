package pipeline

import (
	"sync"

	"repro/internal/cache"
	"repro/internal/predictor"
	"repro/internal/rob"
)

// spares is the process-wide machine pool: the parts of released
// machines whose size is set by their geometry, each kind keyed by its
// own key type and geometry, each key holding a sync.Pool. Those parts
// are the bulk of what building a machine allocates — the Table-1 L2
// alone is 2,048 sets of 8 ways, a BTB 2,048 entries, a two-level ROB
// ring 416 uops per thread — and a fleet miss builds five machines of
// two shapes, so reuse goes where the bytes are. The rest of a machine
// is small; New builds it fresh.
var spares sync.Map

// btbKey and ringKey are the pool keys of BTBs (entries, associativity)
// and ROB rings (physical capacity); a cache.HierConfig keys hierarchies.
type btbKey struct{ entries, assoc int }
type ringKey int

// takeSpare returns a released part under key, if the pool holds one.
func takeSpare[T any](key any) (T, bool) {
	if p, ok := spares.Load(key); ok {
		if v, ok := p.(*sync.Pool).Get().(T); ok {
			return v, true
		}
	}
	var none T
	return none, false
}

// putSpare hands a part to the pool under key.
func putSpare(key, v any) {
	p, _ := spares.LoadOrStore(key, new(sync.Pool))
	p.(*sync.Pool).Put(v)
}

// parts builds a new machine's pooled parts. New takes them from the
// pool (pooledParts); tests also build them fresh. Either way each part
// is in the state its constructor leaves, so the run is bit-identical.
type parts struct {
	hier func(cache.HierConfig) (*cache.Hierarchy, error)
	btb  func(entries, assoc int) (*predictor.BTB, error)
	ring func(capacity int) *rob.Ring
}

var pooledParts = parts{takeHierarchy, takeBTB, takeRing}

// takeHierarchy returns a hierarchy of geometry cfg in the state
// cache.NewHierarchy leaves: a released one, Reset, when the pool has
// one, else a new one. Reset costs one generation increment per cache;
// the sets are rebuilt lazily as the new machine touches them.
func takeHierarchy(cfg cache.HierConfig) (*cache.Hierarchy, error) {
	if h, ok := takeSpare[*cache.Hierarchy](cfg); ok {
		h.Reset()
		return h, nil
	}
	return cache.NewHierarchy(cfg)
}

// takeBTB returns a BTB of the given geometry in the state
// predictor.NewBTB leaves: a released one, Reset, or a new one.
func takeBTB(entries, assoc int) (*predictor.BTB, error) {
	if b, ok := takeSpare[*predictor.BTB](btbKey{entries, assoc}); ok {
		b.Reset()
		return b, nil
	}
	return predictor.NewBTB(entries, assoc)
}

// takeRing returns an empty ROB ring of the given physical capacity in
// the state rob.NewRing leaves: a released one, Reset, or a new one.
func takeRing(capacity int) *rob.Ring {
	if r, ok := takeSpare[*rob.Ring](ringKey(capacity)); ok {
		r.Reset()
		return r
	}
	return rob.NewRing(capacity)
}

// Release hands the machine's memory hierarchy, BTB and ROB rings to the
// pool for a later New to reuse. Call it once, after the last Run; the
// CPU must not be used afterwards. Results already returned stay valid:
// a Result copies the counters and shares no memory with those parts.
func (c *CPU) Release() {
	if c.hier == nil {
		return
	}
	putSpare(c.hier.Config(), c.hier)
	putSpare(btbKey{c.cfg.BTBEntries, c.cfg.BTBAssoc}, c.btb)
	for tid := 0; tid < c.cfg.Threads; tid++ {
		r := c.rob.Ring(tid)
		putSpare(ringKey(r.Cap()), r)
	}
	c.hier, c.btb, c.rob = nil, nil, nil
}
