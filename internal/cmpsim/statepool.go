package cmpsim

import "sync"

// retainBytes caps the hierarchy state the process keeps for reuse: about
// 75 Table-1 hierarchies. It is a constant on purpose; nothing sizes it.
const retainBytes = 32 << 20

// states is the process-wide recycler every NewSimulator draws from and
// every Release returns to.
var states = newStatePool(retainBytes)

// statePool recycles cache-hierarchy state across simulations for the
// life of the process. A hierarchy's dominant allocation is its line
// arrays (≈0.43 MB for the paper's Table 1 geometry by
// HierarchyConfig.StateBytes: 25,088 lines of an 8-byte tag, an 8-byte
// stamp and a dirty byte), and every walk builds one, so one recycler
// serves every suite, served job and facade call instead of each suite
// building its own. get returns a free hierarchy with the same
// configuration digest when there is one, and put resets a hierarchy
// (contents, counters, and the Random policy's replacement stream — see
// Cache.Reset) and files it for reuse, making a recycled hierarchy
// bit-identical in behavior to a fresh one.
//
// Retention is bounded without a knob. A free list grows only by a put
// of a hierarchy that get handed out, and get always takes from the free
// list before building, so no digest ever has more hierarchies than
// were in use at once at its peak. Across digests the free lists hold at
// most capBytes of state; put drops a hierarchy that would exceed it.
// The free lists are explicit rather than a sync.Pool because the
// garbage collector drains a sync.Pool, and the state is then built
// again on the next walk.
type statePool struct {
	mu       sync.Mutex
	capBytes uint64
	retained uint64
	free     map[string][]*Hierarchy

	gets   uint64
	reuses uint64
}

func newStatePool(capBytes uint64) *statePool {
	return &statePool{capBytes: capBytes, free: map[string][]*Hierarchy{}}
}

// get returns a hierarchy for cfg: a recycled one when available (already
// reset by put), otherwise freshly built. The config must validate.
func (p *statePool) get(cfg HierarchyConfig) (*Hierarchy, error) {
	key := cfg.Digest()
	p.mu.Lock()
	p.gets++
	if list := p.free[key]; len(list) > 0 {
		h := list[len(list)-1]
		p.free[key] = list[:len(list)-1]
		p.retained -= h.bytes
		p.reuses++
		p.mu.Unlock()
		return h, nil
	}
	p.mu.Unlock()
	return NewHierarchy(cfg)
}

// put resets h and files it for reuse, or leaves it to the garbage
// collector when keeping it would exceed the byte cap.
func (p *statePool) put(h *Hierarchy) {
	h.Reset()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.retained+h.bytes > p.capBytes {
		return
	}
	p.retained += h.bytes
	p.free[h.digest] = append(p.free[h.digest], h)
}

// stats reports how many gets the pool served and how many of those were
// satisfied by recycled state.
func (p *statePool) stats() (gets, reuses uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gets, p.reuses
}

// StateStats reports how many hierarchies simulators have drawn from the
// process-wide recycler and how many of those were recycled rather than
// built.
func StateStats() (gets, reuses uint64) { return states.stats() }
