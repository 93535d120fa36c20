package pipeline

import (
	"sync"

	"repro/internal/cache"
)

// hierarchies is the process-wide machine pool: released machines'
// memory hierarchies, keyed by geometry (cache.HierConfig), each key
// holding a sync.Pool of *cache.Hierarchy. The caches are the bulk of
// what building a machine allocates (the Table-1 L2 alone is 2,048 sets
// of 8 ways), and a fleet miss builds five machines of one geometry, so
// reuse goes where the bytes are. The rest of a machine is small and
// sized by its scheme and thread count; New builds it fresh.
var hierarchies sync.Map

// takeHierarchy returns a hierarchy of geometry cfg in the state
// cache.NewHierarchy leaves: a released one, Reset, when the pool has
// one, else a new one. Reset costs one generation increment per cache;
// the sets are rebuilt lazily as the new machine touches them.
func takeHierarchy(cfg cache.HierConfig) (*cache.Hierarchy, error) {
	if p, ok := hierarchies.Load(cfg); ok {
		if h, ok := p.(*sync.Pool).Get().(*cache.Hierarchy); ok {
			h.Reset()
			return h, nil
		}
	}
	return cache.NewHierarchy(cfg)
}

// Release hands the machine's memory hierarchy to the pool for a later
// New to reuse. Call it once, after the last Run; the CPU must not be
// used afterwards. Results already returned stay valid: a Result copies
// the cache counters and shares no memory with the hierarchy.
func (c *CPU) Release() {
	if c.hier == nil {
		return
	}
	p, _ := hierarchies.LoadOrStore(c.hier.Config(), new(sync.Pool))
	p.(*sync.Pool).Put(c.hier)
	c.hier = nil
}
