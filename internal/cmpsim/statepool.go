package cmpsim

import "xbsim/internal/freelist"

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
// bit-identical in behavior to a fresh one. Retention is bounded by
// freelist's rule: no digest holds more hierarchies than were in use at
// once at its peak, and all digests together at most the byte cap.
type statePool struct {
	list *freelist.List[string, *Hierarchy]
}

func newStatePool(capBytes uint64) *statePool {
	return &statePool{list: freelist.New[string, *Hierarchy](capBytes)}
}

// get returns a hierarchy for cfg: a recycled one when available (already
// reset by put), otherwise freshly built. The config must validate.
func (p *statePool) get(cfg HierarchyConfig) (*Hierarchy, error) {
	if h, ok := p.list.Get(cfg.Digest()); ok {
		return h, nil
	}
	return NewHierarchy(cfg)
}

// put resets h and files it for reuse, or leaves it to the garbage
// collector when keeping it would exceed the byte cap.
func (p *statePool) put(h *Hierarchy) {
	h.Reset()
	p.list.Put(h.digest, h, h.bytes)
}

// StateStats reports how many hierarchies simulators have drawn from the
// process-wide recycler and how many of those were recycled rather than
// built.
func StateStats() (gets, reuses uint64) { return states.list.Stats() }
