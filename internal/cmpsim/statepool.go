package cmpsim

import "sync"

// StatePool recycles cache-hierarchy state across simulations. A
// hierarchy's dominant allocation is its line arrays (≈0.43 MB for the
// paper's Table 1 geometry by HierarchyConfig.StateBytes: 25,088 lines of
// an 8-byte tag, an 8-byte stamp and a dirty byte); the evaluate stage
// builds one hierarchy per walk per binary, so reallocating per
// evaluation dominated the pipeline's allocation profile. Get returns a
// recycled hierarchy when one with the same configuration digest is
// free, and Put resets a hierarchy (contents, counters, and the Random
// policy's replacement stream — see Cache.Reset) and files it for reuse,
// making a recycled hierarchy bit-identical in behavior to a fresh one.
//
// The pool is safe for concurrent use and nil-safe: a nil *StatePool
// builds fresh state on Get and drops it on Put, so callers thread one
// pointer without caring whether pooling is on.
type StatePool struct {
	mu   sync.Mutex
	free map[string][]*Hierarchy

	gets   uint64
	reuses uint64
}

// NewStatePool returns an empty pool.
func NewStatePool() *StatePool {
	return &StatePool{free: map[string][]*Hierarchy{}}
}

// Get returns a hierarchy for cfg: a recycled one when available (already
// reset by Put), otherwise freshly built. The config must validate.
func (p *StatePool) Get(cfg HierarchyConfig) (*Hierarchy, error) {
	if p == nil {
		return NewHierarchy(cfg)
	}
	key := cfg.Digest()
	p.mu.Lock()
	p.gets++
	if list := p.free[key]; len(list) > 0 {
		h := list[len(list)-1]
		p.free[key] = list[:len(list)-1]
		p.reuses++
		p.mu.Unlock()
		return h, nil
	}
	p.mu.Unlock()
	return NewHierarchy(cfg)
}

// Put resets h and files it for reuse. A nil pool or nil hierarchy is a
// no-op — the state is simply left to the garbage collector.
func (p *StatePool) Put(h *Hierarchy) {
	if p == nil || h == nil {
		return
	}
	h.Reset()
	p.mu.Lock()
	p.free[h.digest] = append(p.free[h.digest], h)
	p.mu.Unlock()
}

// Stats reports how many Gets the pool served and how many of those were
// satisfied by recycled state.
func (p *StatePool) Stats() (gets, reuses uint64) {
	if p == nil {
		return 0, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gets, p.reuses
}
