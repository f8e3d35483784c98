package obs

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// Attribution is the evaluate-stage cost-attribution profiler: a
// hierarchical accumulator that charges wall time, allocations, simulated
// instructions, and simulated cycles to (benchmark, binary, walk, point)
// nodes.
//
// Like the rest of this package, it costs nothing when off: a nil
// *Attribution is a valid no-op sink — StartWalk returns nil without
// reading the clock, and a nil *WalkSample's Done and AddPoint return
// immediately without allocating (pinned by
// TestAttributionDisabledZeroAlloc). Enabled, the recording granularity
// is one sample per walk and one per simulation point, never per block,
// so the overhead stays small relative to the simulation itself.
type Attribution struct {
	mu    sync.Mutex
	nodes map[AttribKey]*AttribValue

	// openWalks counts StartWalk samples not yet closed by Done or
	// Abort. It should be zero whenever the pipeline is quiescent; a
	// nonzero value means a walk sample leaked on some code path.
	openWalks int64
}

// NewAttribution returns an empty, enabled attribution profiler.
func NewAttribution() *Attribution {
	return &Attribution{nodes: map[AttribKey]*AttribValue{}}
}

// Enabled reports whether the profiler records anything.
func (a *Attribution) Enabled() bool { return a != nil }

// AttribKey addresses one node of the attribution hierarchy. The tree
// reads benchmark → binary → walk → point; Point == WholeWalk addresses
// the walk-level node that carries wall time and allocation, while
// Point >= 0 addresses one simulation point's share of the walk.
type AttribKey struct {
	// Benchmark and Binary name the evaluated binary.
	Benchmark, Binary string
	// Walk identifies the evaluation walk: "full" (walk 3), "fli"
	// (walk 4), or "vli" (walk 5).
	Walk string
	// Point is the simulation point's interval index, or WholeWalk for
	// the walk-level node.
	Point int
}

// WholeWalk is the AttribKey.Point value of a walk-level node.
const WholeWalk = -1

// AttribValue is one node's accumulated cost.
type AttribValue struct {
	// WallNS is attributed wall time in nanoseconds (walk-level nodes
	// only; the gated walk interleaves points too finely to time them
	// individually without per-block clock reads).
	WallNS uint64 `json:"wall_ns"`
	// AllocBytes is bytes allocated during the walk (process-wide, so
	// exact only under serial execution — the bench and profile harness
	// configuration; see obs.StageSample for the same caveat).
	AllocBytes uint64 `json:"alloc_bytes"`
	// Instructions and Cycles are the simulated instruction and cycle
	// counts charged to this node.
	Instructions uint64 `json:"instructions"`
	Cycles       uint64 `json:"cycles"`
	// Evals counts point evaluations folded into this node.
	Evals uint64 `json:"evals"`
}

// add accumulates v into the node for key.
func (a *Attribution) add(key AttribKey, v AttribValue) {
	a.mu.Lock()
	n := a.nodes[key]
	if n == nil {
		n = &AttribValue{}
		a.nodes[key] = n
	}
	n.WallNS += v.WallNS
	n.AllocBytes += v.AllocBytes
	n.Instructions += v.Instructions
	n.Cycles += v.Cycles
	n.Evals += v.Evals
	a.mu.Unlock()
}

// WalkSample times one evaluation walk. Obtain one from StartWalk and
// close it exactly once with Done (success) or Abort (failure); extra
// closes are ignored, so `defer ws.Abort()` after a StartWalk is the
// safe idiom — a later Done wins and the deferred Abort is a no-op. A
// nil sample ignores both.
type WalkSample struct {
	a      *Attribution
	key    AttribKey
	start  time.Time
	alloc0 uint64
	closed bool
}

// StartWalk opens a walk-level sample. On a nil receiver it returns nil
// without reading the clock or the heap, keeping the disabled path free.
func (a *Attribution) StartWalk(benchmark, binary, walk string) *WalkSample {
	if a == nil {
		return nil
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	a.mu.Lock()
	a.openWalks++
	a.mu.Unlock()
	return &WalkSample{
		a:      a,
		key:    AttribKey{Benchmark: benchmark, Binary: binary, Walk: walk, Point: WholeWalk},
		start:  time.Now(),
		alloc0: ms.TotalAlloc,
	}
}

// Done closes the sample, charging the walk's wall time and allocation
// plus the simulated instruction/cycle totals to its walk-level node.
func (s *WalkSample) Done(instructions, cycles uint64) {
	if s == nil || s.closed {
		return
	}
	s.closed = true
	elapsed := time.Since(s.start)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.a.add(s.key, AttribValue{
		WallNS:       uint64(elapsed.Nanoseconds()),
		AllocBytes:   ms.TotalAlloc - s.alloc0,
		Instructions: instructions,
		Cycles:       cycles,
	})
	s.a.mu.Lock()
	s.a.openWalks--
	s.a.mu.Unlock()
}

// Abort closes a sample whose walk failed, still charging the wall time
// and allocation spent before the failure (so faulted attempts are not
// invisible in the profile) but no simulated work. Calling Abort after
// Done — the deferred-Abort idiom — is a no-op.
func (s *WalkSample) Abort() {
	if s == nil || s.closed {
		return
	}
	s.Done(0, 0)
}

// OpenWalks returns the number of StartWalk samples not yet closed by
// Done or Abort. A quiescent pipeline must report zero; regression
// tests pin this to catch walk-sample leaks on error paths.
func (a *Attribution) OpenWalks() int64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.openWalks
}

// AddPoint charges one simulation point's simulated instructions and
// cycles to its point node.
func (a *Attribution) AddPoint(benchmark, binary, walk string, point int, instructions, cycles uint64) {
	if a == nil {
		return
	}
	a.add(AttribKey{Benchmark: benchmark, Binary: binary, Walk: walk, Point: point},
		AttribValue{Instructions: instructions, Cycles: cycles, Evals: 1})
}

// AttribNode is one exported node of the attribution tree.
type AttribNode struct {
	Benchmark string `json:"benchmark"`
	Binary    string `json:"binary"`
	Walk      string `json:"walk"`
	// Point is the simulation point's interval index; -1 (WholeWalk)
	// marks the walk-level node.
	Point int         `json:"point"`
	Value AttribValue `json:"value"`
}

// AttribSnapshot is a point-in-time copy of the attribution state.
type AttribSnapshot struct {
	// Nodes holds every attribution node, sorted by (benchmark, binary,
	// walk, point) so any rendering is deterministic.
	Nodes []AttribNode `json:"nodes"`
}

// Snapshot copies the current attribution state. A nil profiler yields
// an empty snapshot.
func (a *Attribution) Snapshot() AttribSnapshot {
	var snap AttribSnapshot
	if a == nil {
		return snap
	}
	a.mu.Lock()
	snap.Nodes = make([]AttribNode, 0, len(a.nodes))
	for k, v := range a.nodes {
		snap.Nodes = append(snap.Nodes, AttribNode{
			Benchmark: k.Benchmark, Binary: k.Binary, Walk: k.Walk, Point: k.Point,
			Value: *v,
		})
	}
	a.mu.Unlock()
	sort.Slice(snap.Nodes, func(i, j int) bool {
		x, y := snap.Nodes[i], snap.Nodes[j]
		if x.Benchmark != y.Benchmark {
			return x.Benchmark < y.Benchmark
		}
		if x.Binary != y.Binary {
			return x.Binary < y.Binary
		}
		if x.Walk != y.Walk {
			return x.Walk < y.Walk
		}
		return x.Point < y.Point
	})
	return snap
}

// Walks returns the walk-level nodes only (Point == WholeWalk), in
// snapshot order — the rows of the profile command's cost table.
func (s AttribSnapshot) Walks() []AttribNode {
	var out []AttribNode
	for _, n := range s.Nodes {
		if n.Point == WholeWalk {
			out = append(out, n)
		}
	}
	return out
}

// TotalWallNS sums attributed wall time across walk-level nodes.
func (s AttribSnapshot) TotalWallNS() uint64 {
	var total uint64
	for _, n := range s.Nodes {
		if n.Point == WholeWalk {
			total += n.Value.WallNS
		}
	}
	return total
}
