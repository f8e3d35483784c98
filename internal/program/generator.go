package program

import (
	"fmt"

	"xbsim/internal/xrand"
)

// benchmarkNames is the SPEC2000 subset the paper evaluates (Figures 1-5).
var benchmarkNames = []string{
	"ammp", "applu", "apsi", "art", "bzip2", "crafty", "eon", "equake",
	"fma3d", "gcc", "gzip", "lucas", "mcf", "mesa", "perlbmk", "sixtrack",
	"swim", "twolf", "vortex", "vpr", "wupwise",
}

// Benchmarks returns the names of all synthesizable benchmarks, in the
// paper's order.
func Benchmarks() []string {
	return append([]string(nil), benchmarkNames...)
}

// traits captures the behavioral profile a synthesized benchmark imitates.
// Values are chosen per benchmark to echo the broad character of the real
// SPEC program: floating-point vs integer, streaming vs pointer-chasing
// memory, few large phases vs many irregular ones.
type traits struct {
	// behaviors is the number of distinct behavior procedures (phases at
	// the source level). Benchmarks with behaviors > the SimPoint cluster
	// cap (10) exercise the paper's "more behaviors than allowed phases"
	// grouping problem.
	behaviors int
	// segments is the number of top-level time segments in main.
	segments int
	// fpFrac is the fraction of non-memory ops that are floating point.
	fpFrac float64
	// memFrac is the fraction of ops that access memory.
	memFrac float64
	// randomMem is the probability a behavior uses pointer-chasing
	// (random) rather than strided accesses.
	randomMem float64
	// wsLadder are candidate working-set sizes in bytes; behaviors draw
	// from these, which positions them against the 32KB/512KB/1MB caches.
	wsLadder []uint64
	// inlinees is the number of small helper procedures that are inlining
	// candidates at O2 (their loops exercise the inlined-loop mapping
	// heuristic).
	inlinees int
	// ambiguousPair, when true, makes two inlinee helpers share identical
	// trip counts — the paper's N == M case where the heuristic must give
	// up.
	ambiguousPair bool
	// pdeStyle, when true, builds applu's failure structure: a main loop
	// calling five similar small solver procedures whose 3-statement loop
	// bodies trigger inlining plus loop distribution at O2, destroying
	// mappability over large regions.
	pdeStyle bool
}

var (
	// kb returns bytes for KiB.
	kb = func(n uint64) uint64 { return n << 10 }
	mb = func(n uint64) uint64 { return n << 20 }
)

// benchTraits assigns traits per benchmark. The table is deliberately
// explicit so the synthetic suite is reviewable at a glance.
var benchTraits = map[string]traits{
	"ammp":     {behaviors: 5, segments: 22, fpFrac: 0.7, memFrac: 0.30, randomMem: 0.4, wsLadder: []uint64{kb(24), kb(192), mb(4)}, inlinees: 1},
	"applu":    {behaviors: 5, segments: 18, fpFrac: 0.8, memFrac: 0.32, randomMem: 0.0, wsLadder: []uint64{kb(96), kb(700), mb(8)}, pdeStyle: true},
	"apsi":     {behaviors: 8, segments: 26, fpFrac: 0.75, memFrac: 0.28, randomMem: 0.1, wsLadder: []uint64{kb(16), kb(256), mb(2), mb(12)}, inlinees: 2},
	"art":      {behaviors: 3, segments: 16, fpFrac: 0.65, memFrac: 0.40, randomMem: 0.2, wsLadder: []uint64{mb(2), mb(4)}, inlinees: 1},
	"bzip2":    {behaviors: 6, segments: 24, fpFrac: 0.02, memFrac: 0.35, randomMem: 0.5, wsLadder: []uint64{kb(24), kb(384), mb(6)}, inlinees: 2},
	"crafty":   {behaviors: 7, segments: 28, fpFrac: 0.01, memFrac: 0.30, randomMem: 0.6, wsLadder: []uint64{kb(8), kb(48), kb(192)}, inlinees: 3},
	"eon":      {behaviors: 6, segments: 20, fpFrac: 0.5, memFrac: 0.26, randomMem: 0.3, wsLadder: []uint64{kb(16), kb(96)}, inlinees: 3},
	"equake":   {behaviors: 4, segments: 18, fpFrac: 0.7, memFrac: 0.38, randomMem: 0.3, wsLadder: []uint64{kb(512), mb(8)}, inlinees: 1},
	"fma3d":    {behaviors: 9, segments: 26, fpFrac: 0.72, memFrac: 0.30, randomMem: 0.2, wsLadder: []uint64{kb(32), kb(512), mb(4)}, inlinees: 2},
	"gcc":      {behaviors: 14, segments: 40, fpFrac: 0.03, memFrac: 0.33, randomMem: 0.55, wsLadder: []uint64{kb(8), kb(64), kb(384), mb(2), mb(10)}, inlinees: 4, ambiguousPair: true},
	"gzip":     {behaviors: 4, segments: 20, fpFrac: 0.01, memFrac: 0.34, randomMem: 0.3, wsLadder: []uint64{kb(64), kb(256)}, inlinees: 1},
	"lucas":    {behaviors: 3, segments: 14, fpFrac: 0.85, memFrac: 0.30, randomMem: 0.0, wsLadder: []uint64{mb(2), mb(16)}},
	"mcf":      {behaviors: 3, segments: 16, fpFrac: 0.02, memFrac: 0.45, randomMem: 0.9, wsLadder: []uint64{mb(8), mb(24)}, inlinees: 1},
	"mesa":     {behaviors: 7, segments: 24, fpFrac: 0.6, memFrac: 0.28, randomMem: 0.2, wsLadder: []uint64{kb(16), kb(128), kb(700)}, inlinees: 2},
	"perlbmk":  {behaviors: 11, segments: 34, fpFrac: 0.03, memFrac: 0.33, randomMem: 0.5, wsLadder: []uint64{kb(16), kb(96), kb(512), mb(3)}, inlinees: 3, ambiguousPair: true},
	"sixtrack": {behaviors: 6, segments: 20, fpFrac: 0.8, memFrac: 0.25, randomMem: 0.05, wsLadder: []uint64{kb(24), kb(256)}, inlinees: 1},
	"swim":     {behaviors: 3, segments: 14, fpFrac: 0.82, memFrac: 0.36, randomMem: 0.0, wsLadder: []uint64{mb(4), mb(16)}},
	"twolf":    {behaviors: 6, segments: 24, fpFrac: 0.05, memFrac: 0.34, randomMem: 0.7, wsLadder: []uint64{kb(32), kb(256), mb(1)}, inlinees: 2},
	"vortex":   {behaviors: 8, segments: 28, fpFrac: 0.02, memFrac: 0.36, randomMem: 0.6, wsLadder: []uint64{kb(48), kb(384), mb(4)}, inlinees: 3},
	"vpr":      {behaviors: 5, segments: 22, fpFrac: 0.15, memFrac: 0.33, randomMem: 0.5, wsLadder: []uint64{kb(24), kb(192), mb(2)}, inlinees: 2},
	"wupwise":  {behaviors: 4, segments: 16, fpFrac: 0.8, memFrac: 0.28, randomMem: 0.1, wsLadder: []uint64{kb(128), mb(2)}, inlinees: 1},
}

// GenConfig scales a generated benchmark.
type GenConfig struct {
	// TargetOps is the approximate total abstract operation count of a
	// full run (before the compiler's target-specific instruction
	// expansion). <= 0 means 10 million.
	TargetOps uint64
}

func (c GenConfig) withDefaults() GenConfig {
	if c.TargetOps == 0 {
		c.TargetOps = 10_000_000
	}
	return c
}

// Generate synthesizes the named benchmark. The same (name, config) always
// produces the identical program. It returns an error for unknown names.
func Generate(name string, cfg GenConfig) (*Program, error) {
	tr, ok := benchTraits[name]
	if !ok {
		return nil, fmt.Errorf("program: unknown benchmark %q (see Benchmarks())", name)
	}
	return generate(name, tr, cfg.withDefaults())
}

// generate runs the generator for an arbitrary trait set — the shared
// core of the fixed benchmark table (Generate) and randomized specs
// (GenerateSpec).
func generate(name string, tr traits, cfg GenConfig) (*Program, error) {
	g := &generator{
		name: name,
		tr:   tr,
		cfg:  cfg,
		rng:  xrand.New("program/" + name),
		prog: &Program{Name: name},
	}
	g.build()
	if err := g.prog.Validate(); err != nil {
		return nil, fmt.Errorf("program: generated %s is invalid: %w", name, err)
	}
	return g.prog, nil
}

// MustGenerate is Generate that panics on error, for tests and examples
// using known benchmark names.
func MustGenerate(name string, cfg GenConfig) *Program {
	p, err := Generate(name, cfg)
	if err != nil {
		panic(err)
	}
	return p
}

type generator struct {
	name string
	tr   traits
	cfg  GenConfig
	rng  *xrand.Stream
	prog *Program

	nextLine   int
	nextLoopID int
	nextRegion int
}

func (g *generator) line() int {
	g.nextLine += g.rng.IntRange(1, 4)
	return g.nextLine
}

func (g *generator) loopID() int {
	id := g.nextLoopID
	g.nextLoopID++
	return id
}

func (g *generator) region() int {
	r := g.nextRegion
	g.nextRegion++
	return r
}

func (g *generator) addProc(name string, body []Stmt) *Proc {
	p := &Proc{Index: len(g.prog.Procs), Name: name, Line: g.line(), Body: body}
	g.prog.Procs = append(g.prog.Procs, p)
	return p
}

// build assembles: main (proc 0, body filled last), behavior procedures,
// inlinee helpers, and — for pdeStyle — the solver procedures.
func (g *generator) build() {
	main := g.addProc("main", nil)

	// Inlinee helpers: small procedures whose bodies fall under the O2
	// inlining threshold. Their loops get distinct trip counts so the
	// inlined-loop heuristic can map them by count; the ambiguous pair
	// shares a count (N == M).
	var helpers []*Proc
	for i := 0; i < g.tr.inlinees; i++ {
		trip := 5 + 3*i // distinct per helper
		if g.tr.ambiguousPair && i == 1 {
			trip = 5 // same as helper 0: ambiguous
		}
		body := []Stmt{
			&Loop{
				ID:   g.loopID(),
				Line: g.line(),
				Trip: TripSpec{Base: trip},
				Body: []Stmt{g.compute(g.smallMix(6), g.memPattern(kb(8), false))},
			},
		}
		helpers = append(helpers, g.addProc(fmt.Sprintf("helper_%d", i), body))
	}

	// pdeStyle solver procedures (the applu case): five similar small
	// procedures, each a loop over THREE compute statements. At O2 the
	// compiler inlines them (small bodies) and distributes the loop
	// (>= 3 statements), destroying the call/loop structure.
	var solvers []*Proc
	if g.tr.pdeStyle {
		for i := 0; i < 5; i++ {
			mem := g.memPattern(g.tr.wsLadder[i%len(g.tr.wsLadder)], false)
			body := []Stmt{
				&Loop{
					ID:   g.loopID(),
					Line: g.line(),
					Trip: TripSpec{Base: 10 + i, Jitter: 1},
					Body: []Stmt{
						g.compute(g.smallMix(4), mem),
						g.compute(g.smallMix(4), mem),
						g.compute(g.smallMix(4), mem),
					},
				},
			}
			solvers = append(solvers, g.addProc(fmt.Sprintf("solve_%d", i), body))
		}
	}

	// Assign each helper to exactly ONE behavior (single call site): the
	// paper's count-based inlined-loop heuristic identifies an inlined
	// loop by its call count, which requires one inlined clone carrying
	// the full count. The ambiguous pair both land in behavior 0, so
	// their clones have identical counts (the N == M case).
	helperOf := make(map[int][]*Proc) // behavior index -> helpers it calls
	for h, helper := range helpers {
		b := h % g.tr.behaviors
		if g.tr.ambiguousPair && h == 1 {
			b = 0
		}
		helperOf[b] = append(helperOf[b], helper)
	}

	// Behavior procedures: each is a distinct phase at the source level,
	// with its own data region, working set, access pattern, and op mix.
	var behaviors []*Proc
	for i := 0; i < g.tr.behaviors; i++ {
		behaviors = append(behaviors, g.behaviorProc(i, helperOf[i], solvers))
	}

	// main: a sequence of time segments. Each segment repeatedly calls one
	// behavior; the schedule revisits behaviors (periodic phase behavior)
	// so SimPoint sees recurring signatures.
	schedule := g.schedule(len(behaviors))
	perSegmentOps := float64(g.cfg.TargetOps) / float64(len(schedule))
	var mainBody []Stmt
	for _, b := range schedule {
		callOps := float64(g.dynOps(behaviors[b].Body))
		trips := int(perSegmentOps/callOps + 0.5)
		if trips < 1 {
			trips = 1
		}
		jitter := trips / 12
		mainBody = append(mainBody, &Loop{
			ID:   g.loopID(),
			Line: g.line(),
			Trip: TripSpec{Base: trips, Jitter: jitter},
			Body: []Stmt{&Call{Line: g.line(), Callee: behaviors[b].Index}},
		})
	}
	main.Body = mainBody
}

// schedule produces the per-segment behavior assignment: a repeating
// pattern over all behaviors with occasional random substitutions, so every
// behavior appears and phases recur over time.
func (g *generator) schedule(behaviors int) []int {
	rng := g.rng.Split("schedule")
	out := make([]int, g.tr.segments)
	for i := range out {
		if rng.Bool(0.2) {
			out[i] = rng.Intn(behaviors)
		} else {
			out[i] = i % behaviors
		}
	}
	// Guarantee every behavior appears at least once.
	seen := make([]bool, behaviors)
	for _, b := range out {
		seen[b] = true
	}
	next := 0
	for b, ok := range seen {
		if !ok {
			// Overwrite a slot that duplicates its predecessor's behavior
			// if possible, otherwise a round-robin slot.
			idx := next % len(out)
			next++
			out[idx] = b
		}
	}
	return out
}

// behaviorProc builds behavior procedure i: an outer loop over {pre-work,
// inner hot loop, post-work}, plus calls to assigned helpers/solvers.
func (g *generator) behaviorProc(i int, helpers, solvers []*Proc) *Proc {
	rng := g.rng.SplitIndexed("behavior", i)
	ws := g.tr.wsLadder[i%len(g.tr.wsLadder)]
	random := rng.Bool(g.tr.randomMem)
	mem := g.memPattern(ws, random)

	if g.tr.pdeStyle && len(solvers) > 0 {
		return g.pdeBehaviorProc(i, rng, mem, solvers)
	}

	innerTrips := rng.IntRange(12, 48)
	outerTrips := rng.IntRange(4, 10)

	hot := g.compute(g.mix(rng, 24, 64), mem)
	inner := &Loop{
		ID:   g.loopID(),
		Line: g.line(),
		Trip: TripSpec{Base: innerTrips, Jitter: innerTrips / 10},
		Body: []Stmt{hot},
	}

	body := []Stmt{g.compute(g.mix(rng, 6, 18), g.memPattern(kb(8), false)), inner}
	// Calls to this behavior's assigned inlinee helpers (exactly one call
	// site per helper).
	for _, h := range helpers {
		body = append(body, &Call{Line: g.line(), Callee: h.Index})
	}
	body = append(body, g.compute(g.mix(rng, 4, 12), g.memPattern(kb(8), false)))

	outer := &Loop{
		ID:   g.loopID(),
		Line: g.line(),
		Trip: TripSpec{Base: outerTrips, Jitter: outerTrips / 8},
		Body: body,
	}
	// A fat once-per-call prologue keeps every behavior procedure above
	// the O2 inline threshold (work procedures must keep their symbols;
	// only the small helpers/solvers are inlining fodder). It is executed
	// once per call, so it is dynamically negligible.
	prologue := g.compute(g.mix(rng, 70, 90), g.memPattern(kb(8), false))
	return g.addProc(fmt.Sprintf("work_%d", i), []Stmt{prologue, outer})
}

// pdeBehaviorProc builds the applu-style behavior: a single big loop whose
// body is solver calls bracketed by computes — no inner loop structure.
// At O2 the solvers are inlined (and their loops distributed) and the big
// loop itself, containing >= 2 inlined calls, is restructured, so the
// entire region between behavior calls has no mappable markers. Combined
// with a large trip count this makes cross-binary intervals in applu far
// larger than the target size (the Figure 2 outlier).
func (g *generator) pdeBehaviorProc(i int, rng *xrand.Stream, mem MemPattern, solvers []*Proc) *Proc {
	// The behavior's own compute work must carry enough BBV weight for
	// SimPoint to tell behaviors apart; the solver calls execute shared
	// code that looks identical across behaviors in the unoptimized
	// (primary) binary.
	body := []Stmt{g.compute(g.mix(rng, 40, 70), mem)}
	for _, s := range solvers {
		body = append(body, &Call{Line: g.line(), Callee: s.Index})
	}
	body = append(body, g.compute(g.mix(rng, 40, 70), mem))

	// Size one behavior call to span several target-size intervals: aim
	// for ~1/(4*segments) of the whole run per call.
	iterOps := g.dynOps(body)
	targetCall := g.cfg.TargetOps / uint64(4*g.tr.segments)
	outerTrips := int(targetCall / iterOps)
	if outerTrips < 8 {
		outerTrips = 8
	}
	outer := &Loop{
		ID:   g.loopID(),
		Line: g.line(),
		Trip: TripSpec{Base: outerTrips, Jitter: outerTrips / 10},
		Body: body,
	}
	// Same rationale as in behaviorProc: keep the symbol at O2.
	prologue := g.compute(g.mix(rng, 70, 90), g.memPattern(kb(8), false))
	return g.addProc(fmt.Sprintf("work_%d", i), []Stmt{prologue, outer})
}

// mix draws an op mix of total size in [lo, hi] following the benchmark's
// fp/memory fractions.
func (g *generator) mix(rng *xrand.Stream, lo, hi int) OpMix {
	total := rng.IntRange(lo, hi)
	memOps := int(float64(total) * g.tr.memFrac)
	loads := memOps * 2 / 3
	stores := memOps - loads
	rest := total - memOps
	fp := int(float64(rest) * g.tr.fpFrac)
	return OpMix{IntOps: rest - fp, FPOps: fp, Loads: loads, Stores: stores}
}

// smallMix is a fixed-shape tiny mix used by helpers and solvers.
func (g *generator) smallMix(total int) OpMix {
	mem := total / 3
	if mem < 1 {
		mem = 1
	}
	fp := int(float64(total-mem) * g.tr.fpFrac)
	return OpMix{IntOps: total - mem - fp, FPOps: fp, Loads: mem, Stores: 0}
}

func (g *generator) memPattern(ws uint64, random bool) MemPattern {
	class := MemStride
	var stride uint64 = 8
	if random {
		class = MemRandom
		stride = 0
	}
	return MemPattern{Region: g.region(), WorkingSet: ws, Stride: stride, Class: class}
}

func (g *generator) compute(ops OpMix, mem MemPattern) *Compute {
	if ops.Loads == 0 && ops.Stores == 0 {
		mem = MemPattern{}
	}
	return &Compute{Line: g.line(), Ops: ops, Mem: mem}
}

// dynOps estimates the abstract ops executed by one run of the statement
// list using base trip counts, resolving calls through already-constructed
// procedures. The generator uses it to size main's segment loops.
func (g *generator) dynOps(stmts []Stmt) uint64 {
	var total uint64
	for _, s := range stmts {
		switch s := s.(type) {
		case *Compute:
			total += uint64(s.Ops.Total())
		case *Loop:
			total += uint64(s.Trip.Base) * g.dynOps(s.Body)
		case *Call:
			total += 8 + g.dynOps(g.prog.Procs[s.Callee].Body)
		}
	}
	return total
}

// EstimateDynamicOps estimates total abstract ops for a full run of the
// program, resolving calls through the program. Exposed for sizing checks.
func EstimateDynamicOps(p *Program) uint64 {
	memo := make([]uint64, len(p.Procs))
	done := make([]bool, len(p.Procs))
	var procOps func(i int) uint64
	var stmtsOps func(stmts []Stmt) uint64
	stmtsOps = func(stmts []Stmt) uint64 {
		var total uint64
		for _, s := range stmts {
			switch s := s.(type) {
			case *Compute:
				total += uint64(s.Ops.Total())
			case *Loop:
				total += uint64(s.Trip.Base) * stmtsOps(s.Body)
			case *Call:
				total += 8 + procOps(s.Callee)
			}
		}
		return total
	}
	procOps = func(i int) uint64 {
		if done[i] {
			return memo[i]
		}
		done[i] = true // call graph is acyclic (validated)
		memo[i] = stmtsOps(p.Procs[i].Body)
		return memo[i]
	}
	return procOps(0)
}
