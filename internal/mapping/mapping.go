// Package mapping implements the paper's core contribution: finding
// mappable points — instructions that mark the exact same point of
// execution in every binary compiled from one source program (§3.2.2).
//
// Mappable points come from three matchers, in decreasing strength:
//
//   - Procedure entries, matched by symbol name. The execution count must
//     be identical in all binaries (it is, when the symbol survived —
//     inlining both removes symbols and changes residual counts).
//   - Loop entries and loop bodies (back edges), matched by debug line
//     number, requiring a unique loop at that line per binary and equal
//     execution counts everywhere. Optimizations break this selectively:
//     unrolling changes back-edge counts (the entry stays mappable);
//     restructuring and inlining destroy line info outright.
//   - The inlined-loop heuristic (§3.3): a still-unmatched loop with line
//     info is matched against line-less loops in the other binaries by its
//     entry (call) count, and only when that count identifies exactly one
//     candidate. The paper's N == M case — two inlined loops with equal
//     counts — is reported as ambiguous and left unmapped.
//
// The result is an ordered list of Points, each carrying the binary-local
// marker ID per binary, plus translation helpers for moving interval
// boundaries between binaries (§3.2.5: a simulation point is a
// (marker ID, execution count) pair valid in every binary).
package mapping

import (
	"context"
	"fmt"
	"sort"

	"xbsim/internal/compiler"
	"xbsim/internal/fingerprint"
	"xbsim/internal/obs"
	"xbsim/internal/profile"
)

// Point is one mappable point: the same semantic event locatable in every
// binary.
type Point struct {
	// Kind is the marker kind (procedure entry, loop entry, loop body).
	Kind compiler.MarkerKind
	// Name describes the point: the procedure symbol, "L<line>" for loops
	// matched by line, or "inlined(L<line>)" for heuristic matches.
	Name string
	// Count is the point's execution count, identical in all binaries.
	Count uint64
	// Markers[b] is the binary-local marker ID in binary b.
	Markers []int
	// ViaHeuristic is true when the match came from the inlined-loop
	// count heuristic rather than symbol/line matching.
	ViaHeuristic bool
}

// Diagnostics summarizes what could and could not be mapped.
type Diagnostics struct {
	// LoopsPerBinary is the number of loop pieces profiled per binary.
	LoopsPerBinary []int
	// UnmappedLoopsPerBinary counts loop pieces with no mappable entry
	// marker per binary.
	UnmappedLoopsPerBinary []int
	// HeuristicMatched counts loops mapped by the inlined-loop heuristic.
	HeuristicMatched int
	// HeuristicAmbiguous counts loops the heuristic had to give up on
	// because multiple candidates shared the count (the N == M case).
	HeuristicAmbiguous int
	// ProcsUnmatched counts symbols absent from at least one binary.
	ProcsUnmatched int
}

// Options tunes the matcher; the zero value enables everything (the
// paper's configuration).
type Options struct {
	// DisableLoopEntries excludes loop-entry markers.
	DisableLoopEntries bool
	// DisableLoopBodies excludes loop back-edge markers.
	DisableLoopBodies bool
	// DisableInlineHeuristic turns off §3.3 inlined-loop matching.
	DisableInlineHeuristic bool
}

// Result is the mappable point set across a list of binaries.
type Result struct {
	// Binaries are the compared binaries, in input order.
	Binaries []*compiler.Binary
	// Points is the mappable point list, deterministically ordered.
	Points []Point
	// Diag summarizes mapping coverage.
	Diag Diagnostics

	// markerToPoint[b] maps binary b's local marker ID to point index.
	markerToPoint []map[int]int
}

// FindCtx computes the mappable points across the profiled binaries. All
// profiles must be of binaries of the same program on the same input.
// With an observer on the context it records a "stage.mapping" span and
// publishes mappable-marker counters (mapping.points,
// mapping.heuristic_matched, mapping.heuristic_ambiguous,
// mapping.procs_unmatched).
func FindCtx(ctx context.Context, profiles []*profile.Profile, opts Options) (*Result, error) {
	if len(profiles) < 2 {
		return nil, fmt.Errorf("mapping: need at least 2 binaries, got %d", len(profiles))
	}
	name := profiles[0].Binary.Program.Name
	_, span := obs.StartSpan(ctx, "stage.mapping", name)
	defer span.End()
	input := profiles[0].Input
	for _, p := range profiles[1:] {
		if p.Binary.Program.Name != name {
			return nil, fmt.Errorf("mapping: binaries of different programs (%s vs %s)",
				name, p.Binary.Program.Name)
		}
		if p.Input != input {
			return nil, fmt.Errorf("mapping: profiles use different inputs")
		}
	}

	r := &Result{}
	for _, p := range profiles {
		r.Binaries = append(r.Binaries, p.Binary)
	}

	matchProcs(profiles, r)
	loopMatched := matchLoopsByLine(profiles, r, opts)
	if !opts.DisableInlineHeuristic && !opts.DisableLoopEntries {
		matchInlinedLoops(profiles, r, loopMatched)
	}
	fillDiagnostics(profiles, r, loopMatched)
	sortPoints(r)
	r.buildIndex()
	if o := obs.From(ctx); o != nil {
		o.Counter("mapping.points").Add(uint64(len(r.Points)))
		o.Counter("mapping.heuristic_matched").Add(uint64(r.Diag.HeuristicMatched))
		o.Counter("mapping.heuristic_ambiguous").Add(uint64(r.Diag.HeuristicAmbiguous))
		o.Counter("mapping.procs_unmatched").Add(uint64(r.Diag.ProcsUnmatched))
	}
	return r, nil
}

// matchProcs adds procedure-entry points for symbols present in every
// binary with identical counts.
func matchProcs(profiles []*profile.Profile, r *Result) {
	ref := profiles[0]
	for _, rp := range ref.Procs {
		markers := make([]int, len(profiles))
		markers[0] = rp.Marker
		ok := true
		for bi := 1; bi < len(profiles); bi++ {
			pp := profiles[bi].ProcBySymbol(rp.Symbol)
			if pp == nil || pp.Count != rp.Count {
				ok = false
				break
			}
			markers[bi] = pp.Marker
		}
		if !ok {
			r.Diag.ProcsUnmatched++
			continue
		}
		r.Points = append(r.Points, Point{
			Kind:    compiler.MarkerProcEntry,
			Name:    rp.Symbol,
			Count:   rp.Count,
			Markers: markers,
		})
	}
}

// lineKey indexes loops by debug line; only loops whose line is unique in
// their binary are eligible for line matching.
func lineIndex(p *profile.Profile) map[int]*profile.LoopProfile {
	byLine := map[int]*profile.LoopProfile{}
	dup := map[int]bool{}
	for i := range p.Loops {
		l := &p.Loops[i]
		if l.Line == 0 {
			continue
		}
		if _, seen := byLine[l.Line]; seen {
			dup[l.Line] = true
			continue
		}
		byLine[l.Line] = l
	}
	for line := range dup {
		delete(byLine, line)
	}
	return byLine
}

// matchLoopsByLine adds loop-entry and loop-body points matched by (line,
// count) across all binaries. It returns, per binary, the set of loop
// pieces (by entry marker) that obtained a mappable entry point.
func matchLoopsByLine(profiles []*profile.Profile, r *Result, opts Options) []map[int]bool {
	matched := make([]map[int]bool, len(profiles))
	for i := range matched {
		matched[i] = map[int]bool{}
	}
	indices := make([]map[int]*profile.LoopProfile, len(profiles))
	for i, p := range profiles {
		indices[i] = lineIndex(p)
	}
	// Iterate the reference binary's lines in sorted order for
	// determinism.
	var lines []int
	for line := range indices[0] {
		lines = append(lines, line)
	}
	sort.Ints(lines)

	for _, line := range lines {
		refLoop := indices[0][line]
		loops := make([]*profile.LoopProfile, len(profiles))
		loops[0] = refLoop
		present := true
		for bi := 1; bi < len(profiles); bi++ {
			l, ok := indices[bi][line]
			if !ok {
				present = false
				break
			}
			loops[bi] = l
		}
		if !present {
			continue
		}
		// Entry markers: counts must agree everywhere.
		if !opts.DisableLoopEntries {
			ok := true
			for _, l := range loops {
				if l.EntryCount != refLoop.EntryCount {
					ok = false
					break
				}
			}
			if ok {
				markers := make([]int, len(loops))
				for bi, l := range loops {
					markers[bi] = l.EntryMarker
					matched[bi][l.EntryMarker] = true
				}
				r.Points = append(r.Points, Point{
					Kind:    compiler.MarkerLoopEntry,
					Name:    fmt.Sprintf("L%d", line),
					Count:   refLoop.EntryCount,
					Markers: markers,
				})
			}
		}
		// Body markers: unrolling changes counts, which this check
		// rejects — precisely the paper's reason to track entries and
		// bodies separately.
		if !opts.DisableLoopBodies {
			ok := true
			for _, l := range loops {
				if l.BodyCount != refLoop.BodyCount {
					ok = false
					break
				}
			}
			if ok {
				markers := make([]int, len(loops))
				for bi, l := range loops {
					markers[bi] = l.BodyMarker
				}
				r.Points = append(r.Points, Point{
					Kind:    compiler.MarkerLoopBody,
					Name:    fmt.Sprintf("L%d", line),
					Count:   refLoop.BodyCount,
					Markers: markers,
				})
			}
		}
	}
	return matched
}

// matchInlinedLoops applies the §3.3 heuristic: a reference loop with line
// info but no line match in some binary is located there among line-less
// loops by entry (call) count, requiring a unique candidate. Only the
// entry marker is mapped (back-edge counts change under unrolling of the
// clone).
func matchInlinedLoops(profiles []*profile.Profile, r *Result, matched []map[int]bool) {
	ref := profiles[0]
	// Consider reference loops with line info whose entry marker is not
	// yet mappable.
	for i := range ref.Loops {
		refLoop := &ref.Loops[i]
		if refLoop.Line == 0 || matched[0][refLoop.EntryMarker] {
			continue
		}
		markers := make([]int, len(profiles))
		markers[0] = refLoop.EntryMarker
		ok := true
		ambiguous := false
		candidates := make([]*profile.LoopProfile, len(profiles))
		for bi := 1; bi < len(profiles); bi++ {
			p := profiles[bi]
			// Prefer an exact line+count match (e.g. the sibling
			// unoptimized binary on the other architecture).
			var found *profile.LoopProfile
			for j := range p.Loops {
				l := &p.Loops[j]
				if l.Line == refLoop.Line && l.EntryCount == refLoop.EntryCount &&
					!matched[bi][l.EntryMarker] {
					found = l
					break
				}
			}
			if found == nil {
				// Count-based search among line-less, unmatched loops.
				var hits []*profile.LoopProfile
				for j := range p.Loops {
					l := &p.Loops[j]
					if l.Line == 0 && l.EntryCount == refLoop.EntryCount &&
						!matched[bi][l.EntryMarker] {
						hits = append(hits, l)
					}
				}
				switch len(hits) {
				case 1:
					found = hits[0]
				case 0:
					ok = false
				default:
					ok = false
					ambiguous = true
				}
			}
			if !ok {
				break
			}
			candidates[bi] = found
			markers[bi] = found.EntryMarker
		}
		if !ok {
			if ambiguous {
				r.Diag.HeuristicAmbiguous++
			}
			continue
		}
		for bi := 1; bi < len(profiles); bi++ {
			matched[bi][candidates[bi].EntryMarker] = true
		}
		matched[0][refLoop.EntryMarker] = true
		r.Diag.HeuristicMatched++
		r.Points = append(r.Points, Point{
			Kind:         compiler.MarkerLoopEntry,
			Name:         fmt.Sprintf("inlined(L%d)", refLoop.Line),
			Count:        refLoop.EntryCount,
			Markers:      markers,
			ViaHeuristic: true,
		})
	}
}

func fillDiagnostics(profiles []*profile.Profile, r *Result, matched []map[int]bool) {
	r.Diag.LoopsPerBinary = make([]int, len(profiles))
	r.Diag.UnmappedLoopsPerBinary = make([]int, len(profiles))
	for bi, p := range profiles {
		r.Diag.LoopsPerBinary[bi] = len(p.Loops)
		for i := range p.Loops {
			if !matched[bi][p.Loops[i].EntryMarker] {
				r.Diag.UnmappedLoopsPerBinary[bi]++
			}
		}
	}
}

// sortPoints orders points deterministically: procedures first (by name),
// then loops by name and kind.
func sortPoints(r *Result) {
	sort.Slice(r.Points, func(i, j int) bool {
		a, b := r.Points[i], r.Points[j]
		if (a.Kind == compiler.MarkerProcEntry) != (b.Kind == compiler.MarkerProcEntry) {
			return a.Kind == compiler.MarkerProcEntry
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Kind < b.Kind
	})
}

func (r *Result) buildIndex() {
	r.markerToPoint = make([]map[int]int, len(r.Binaries))
	for bi := range r.Binaries {
		r.markerToPoint[bi] = map[int]int{}
	}
	for pi, pt := range r.Points {
		for bi, m := range pt.Markers {
			r.markerToPoint[bi][m] = pi
		}
	}
}

// MarkersFor returns the mappable binary-local marker IDs for binary b,
// usable as profile.VLICollector boundaries.
func (r *Result) MarkersFor(b int) []int {
	out := make([]int, 0, len(r.Points))
	for _, pt := range r.Points {
		out = append(out, pt.Markers[b])
	}
	return out
}

// PointOfMarker resolves binary b's local marker to a point index.
func (r *Result) PointOfMarker(b, marker int) (int, bool) {
	pi, ok := r.markerToPoint[b][marker]
	return pi, ok
}

// TranslateBoundary rewrites a boundary recorded in binary `from` into the
// marker space of binary `to`. Counts carry over unchanged because
// mappable markers fire identically in every binary. Sentinel boundaries
// (start / end of execution) pass through.
func (r *Result) TranslateBoundary(from, to int, bd profile.Boundary) (profile.Boundary, error) {
	if bd.Marker < 0 {
		return bd, nil
	}
	pi, ok := r.PointOfMarker(from, bd.Marker)
	if !ok {
		return profile.Boundary{}, fmt.Errorf(
			"mapping: marker %d of binary %s is not a mappable point", bd.Marker, r.Binaries[from].Name)
	}
	return profile.Boundary{Marker: r.Points[pi].Markers[to], Count: bd.Count}, nil
}

// FingerprintFor digests the point list as seen from binary b: each
// point's kind, name, count, heuristic flag, and b's local marker ID,
// in point order. The point order is deterministic and independent of
// the binary list order, so the self-check harness compares this digest
// across metamorphic runs that permute the non-primary binaries.
func (r *Result) FingerprintFor(b int) string {
	h := fingerprint.New()
	h.Int(len(r.Points))
	for _, pt := range r.Points {
		h.Int(int(pt.Kind))
		h.String(pt.Name)
		h.Uint64(pt.Count)
		h.Int(pt.Markers[b])
		if pt.ViaHeuristic {
			h.Int(1)
		} else {
			h.Int(0)
		}
	}
	return h.Sum()
}

// TranslateEnds rewrites a whole boundary list between binaries.
func (r *Result) TranslateEnds(from, to int, ends []profile.Boundary) ([]profile.Boundary, error) {
	out := make([]profile.Boundary, len(ends))
	for i, bd := range ends {
		t, err := r.TranslateBoundary(from, to, bd)
		if err != nil {
			return nil, fmt.Errorf("boundary %d: %w", i, err)
		}
		out[i] = t
	}
	return out, nil
}
