// Package compiler lowers a source program (internal/program) to a
// "binary" for one of four targets: {32-bit, 64-bit} × {unoptimized,
// optimized}. It stands in for the paper's Intel compiler 9.0 builds of
// SPEC2000 with -g.
//
// A Binary carries everything the rest of the pipeline observes about a
// real binary:
//
//   - static basic blocks with per-execution instruction counts and memory
//     behavior (consumed by the CMP$im-like simulator and BBV profilers);
//   - a symbol table of procedure entry points (procedures fully inlined at
//     O2 lose their symbol, exactly the failure mode in the paper §3.3);
//   - debug line numbers on loop branches (the -g information the mapping
//     step matches on; optimized transformations degrade it);
//   - markers: instrumentation points at procedure entries, loop entries,
//     and loop back edges — the candidate mappable points.
//
// The O2 pipeline applies four transformations that reproduce the paper's
// mapping hazards:
//
//   - inlining of small procedures (symbol + entry point disappear; cloned
//     loops keep their semantics but lose line info);
//   - loop distribution of inlined loops with >= 3 body statements (the
//     applu case: one source loop becomes two pieces whose counts are
//     ambiguous);
//   - restructuring of loops that directly contain >= 2 inlined calls
//     (post-inline fusion/rotation; the loop's own entry/latch markers lose
//     line info and the latch count changes);
//   - unrolling (factor 4) of innermost single-compute loops: the back
//     edge executes ceil(T/4) times, so its count no longer matches the
//     unoptimized binaries, while the loop entry stays mappable — the
//     reason the paper tracks loop entries and bodies separately.
//
// Instruction expansion differs per target and is deliberately non-uniform
// per block (deterministic jitter keyed by source line), so fixed-length
// intervals cut at different semantic positions in different binaries.
package compiler

import (
	"fmt"
	"math"

	"xbsim/internal/program"
	"xbsim/internal/xrand"
)

// Arch is the target architecture word width.
type Arch int

const (
	// Arch32 models 32-bit x86 (IA32).
	Arch32 Arch = iota
	// Arch64 models 64-bit x86 (Intel64).
	Arch64
)

// String implements fmt.Stringer.
func (a Arch) String() string {
	if a == Arch64 {
		return "64"
	}
	return "32"
}

// OptLevel is the optimization level.
type OptLevel int

const (
	// O0 is unoptimized: no inlining or loop transformations, heavy
	// instruction expansion, register spills to the stack.
	O0 OptLevel = iota
	// O2 is optimized: inlining, loop distribution, restructuring,
	// unrolling, tight instruction selection.
	O2
)

// String implements fmt.Stringer.
func (o OptLevel) String() string {
	if o == O2 {
		return "o"
	}
	return "u"
}

// Target is one compilation configuration.
type Target struct {
	Arch Arch
	Opt  OptLevel
}

// String returns the paper's configuration shorthand: 32u, 32o, 64u, 64o.
func (t Target) String() string { return t.Arch.String() + t.Opt.String() }

// AllTargets lists the paper's four configurations in a fixed order:
// 32u, 32o, 64u, 64o.
var AllTargets = []Target{
	{Arch32, O0}, {Arch32, O2}, {Arch64, O0}, {Arch64, O2},
}

// MarkerKind classifies an instrumentation marker.
type MarkerKind int

const (
	// MarkerProcEntry fires once per call of a symbolled procedure.
	MarkerProcEntry MarkerKind = iota
	// MarkerLoopEntry fires once each time a loop is entered, regardless
	// of how many iterations follow.
	MarkerLoopEntry
	// MarkerLoopBody fires on the loop back edge — once per iteration
	// group (per iteration when not unrolled).
	MarkerLoopBody
)

// String implements fmt.Stringer.
func (k MarkerKind) String() string {
	switch k {
	case MarkerProcEntry:
		return "proc"
	case MarkerLoopEntry:
		return "loop-entry"
	case MarkerLoopBody:
		return "loop-body"
	default:
		return fmt.Sprintf("MarkerKind(%d)", int(k))
	}
}

// Marker is a static instrumentation point attached to a basic block. A
// marker "fires" whenever its block executes.
type Marker struct {
	// ID indexes Binary.Markers.
	ID int
	// Kind classifies the marker.
	Kind MarkerKind
	// Block is the basic block the marker is attached to.
	Block int
	// Symbol is the procedure symbol for MarkerProcEntry markers, ""
	// otherwise.
	Symbol string
	// Line is the debug line number; 0 means the optimizer destroyed or
	// never emitted line info (inlined clones, restructured loops).
	Line int
	// EnclosingSymbol is the symbol of the innermost symbolled procedure
	// containing this marker after inlining; the inlined-loop mapping
	// heuristic groups candidates by it.
	EnclosingSymbol string
	// SourceLoopID is the originating source loop for loop markers, -1
	// for procedure markers. It is ground truth for tests and is NOT
	// consulted by the mapping algorithm (real tools do not have it).
	SourceLoopID int
	// Piece distinguishes the pieces of a distributed loop (0 for the
	// first or only piece).
	Piece int
}

// Block is a static basic block.
type Block struct {
	// ID indexes Binary.Blocks.
	ID int
	// Instrs is the number of instructions executed per entry.
	Instrs int
	// FPInstrs is the floating-point subset of Instrs (latency model).
	FPInstrs int
	// Loads and Stores are data accesses per execution following Mem.
	Loads, Stores int
	// SpillLoads and SpillStores are register-spill accesses per execution
	// hitting the stack region (unoptimized binaries only).
	SpillLoads, SpillStores int
	// Mem is the access pattern for Loads/Stores (working set already
	// scaled for the target). Zero-valued when Loads == Stores == 0.
	Mem program.MemPattern
	// SrcProc is the source procedure index the block was lowered from.
	SrcProc int
	// SrcLine is the source line, 0 if synthetic.
	SrcLine int
}

// ProcSym is a symbol-table entry.
type ProcSym struct {
	// Symbol is the procedure name.
	Symbol string
	// ProcIndex is the source procedure index.
	ProcIndex int
	// EntryBlock is the block executed on entry (carries the proc marker).
	EntryBlock int
}

// LStmt is a node of the lowered, executable form of a procedure body.
type LStmt interface{ lstmt() }

// LBlock executes one basic block.
type LBlock struct {
	Block int
}

func (*LBlock) lstmt() {}

// LoopPiece is one lowered copy of (part of) a source loop body. Ordinary
// loops have one piece; distributed loops have several, each iterated the
// same number of times in sequence.
type LoopPiece struct {
	// EntryBlock executes once per loop entry and carries the loop-entry
	// marker.
	EntryBlock int
	// LatchBlock executes once per iteration group (ceil(T/Unroll) times
	// per entry) and carries the loop-body marker.
	LatchBlock int
	// Body executes once per iteration.
	Body []LStmt
}

// LLoop is a lowered loop. The executor draws the trip count T once per
// entry (keyed by SourceID so every binary sees identical counts) and runs
// each piece T times.
type LLoop struct {
	// SourceID is the source loop ID driving trip-count determination.
	SourceID int
	// Unroll is the latch grouping factor (1 = latch per iteration).
	Unroll int
	// Pieces holds the lowered bodies; len > 1 after loop distribution.
	Pieces []LoopPiece
}

func (*LLoop) lstmt() {}

// LCall is a lowered call site.
type LCall struct {
	// SiteBlock is the call-overhead block, -1 when the call was inlined.
	SiteBlock int
	// Callee is the source procedure index.
	Callee int
	// Inlined, when non-nil, is the private inlined clone of the callee
	// body executed in place of a call.
	Inlined *LBody
}

func (*LCall) lstmt() {}

// LBody is a lowered procedure body (shared procedure or inline clone).
type LBody struct {
	// ProcIndex is the source procedure.
	ProcIndex int
	// EntryBlock is the prologue block, -1 for inline clones (inlining
	// removes the prologue along with the entry point).
	EntryBlock int
	// Stmts is the lowered statement list.
	Stmts []LStmt
}

// Binary is a compiled program for one target.
type Binary struct {
	// Program is the source.
	Program *program.Program
	// Target is the compilation configuration.
	Target Target
	// Name is "<program>.<target>", e.g. "gcc.32u".
	Name string
	// Blocks is the static basic block table.
	Blocks []Block
	// Markers is the instrumentation point table.
	Markers []Marker
	// Symbols is the symbol table (procedures that kept their entry
	// points; fully inlined procedures are absent).
	Symbols []ProcSym
	// Procs maps source procedure index to its lowered body; nil for
	// procedures fully inlined everywhere.
	Procs []*LBody
	// StackRegion is the distinct region ID used for spill traffic.
	StackRegion int
}

// Entry returns the lowered entry procedure (main).
func (b *Binary) Entry() *LBody { return b.Procs[0] }

// SymbolByName returns the symbol entry with the given name, or nil.
func (b *Binary) SymbolByName(name string) *ProcSym {
	for i := range b.Symbols {
		if b.Symbols[i].Symbol == name {
			return &b.Symbols[i]
		}
	}
	return nil
}

// coefficients is the per-target instruction expansion model.
type coefficients struct {
	cInt, cFP, cLoad, cStore float64
	overhead                 float64 // per-block fixed expansion
	spillFrac                float64 // spill accesses per ALU op (O0 only)
	latchInstrs              int
	entryInstrs              int // loop entry block
	prologInstrs             int
	callInstrs               int
	// wsScaleRandom scales random-access working sets (pointer-heavy data
	// grows under 64-bit pointers).
	wsScaleRandom float64
}

func targetCoefficients(t Target) coefficients {
	var c coefficients
	if t.Opt == O0 {
		c = coefficients{
			cInt: 2.6, cFP: 2.2, cLoad: 2.0, cStore: 2.0,
			overhead: 2.0, spillFrac: 0.8,
			latchInstrs: 4, entryInstrs: 4, prologInstrs: 8, callInstrs: 6,
		}
	} else {
		c = coefficients{
			cInt: 1.0, cFP: 1.0, cLoad: 1.0, cStore: 1.0,
			overhead: 0.5, spillFrac: 0,
			latchInstrs: 2, entryInstrs: 2, prologInstrs: 3, callInstrs: 2,
		}
	}
	switch t.Arch {
	case Arch32:
		// 32-bit mode: fewer registers, wider arithmetic sequences.
		c.cInt *= 1.2
		c.cFP *= 1.1
		c.wsScaleRandom = 1.0
	case Arch64:
		// 64-bit mode: tighter code but 8-byte pointers inflate
		// pointer-chasing working sets.
		c.wsScaleRandom = 1.25
	}
	return c
}

// inlineThreshold is the static size (abstract ops) below which O2 inlines
// a procedure at every call site.
const inlineThreshold = 64

// UnrollFactor is the O2 unroll factor for innermost single-compute loops.
const UnrollFactor = 4

// RestructureLatchDiv is the latch-count divisor applied by O2 loop
// restructuring.
const RestructureLatchDiv = 2

// Compile lowers the program for the target. Compilation is deterministic:
// the same (program, target) always yields the identical binary.
func Compile(p *program.Program, t Target) (*Binary, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("compiler: %w", err)
	}
	lw := &lowerer{
		prog: p,
		t:    t,
		coef: targetCoefficients(t),
		bin: &Binary{
			Program: p,
			Target:  t,
			Name:    p.Name + "." + t.String(),
			Procs:   make([]*LBody, len(p.Procs)),
		},
	}
	// The stack region must not collide with program data regions.
	maxRegion := 0
	for _, proc := range p.Procs {
		walkComputes(proc.Body, func(c *program.Compute) {
			if c.Mem.Region > maxRegion {
				maxRegion = c.Mem.Region
			}
		})
	}
	lw.bin.StackRegion = maxRegion + 1
	lw.stackMem = program.MemPattern{
		Region:     lw.bin.StackRegion,
		WorkingSet: 4 << 10,
		Stride:     8,
		Class:      program.MemStride,
	}

	// Decide inlining: at O2, procedures under the threshold are inlined
	// at every call site and lose their symbol.
	lw.inlined = make([]bool, len(p.Procs))
	if t.Opt == O2 {
		for i, proc := range p.Procs {
			if i == 0 {
				continue // never inline main
			}
			if program.StaticOps(proc.Body) < inlineThreshold {
				lw.inlined[i] = true
			}
		}
	}

	// Lower procedures that keep their symbols (in index order so block
	// and marker IDs are deterministic).
	for i, proc := range p.Procs {
		if lw.inlined[i] {
			continue
		}
		lw.bin.Procs[i] = lw.lowerProc(proc)
	}
	return lw.bin, nil
}

// MustCompile is Compile for known-valid inputs; it panics on error.
func MustCompile(p *program.Program, t Target) *Binary {
	b, err := Compile(p, t)
	if err != nil {
		panic(err)
	}
	return b
}

// CompileAll compiles the program for all four paper targets, in
// AllTargets order.
func CompileAll(p *program.Program) ([]*Binary, error) {
	out := make([]*Binary, len(AllTargets))
	for i, t := range AllTargets {
		b, err := Compile(p, t)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

type lowerer struct {
	prog     *program.Program
	t        Target
	coef     coefficients
	bin      *Binary
	inlined  []bool
	stackMem program.MemPattern
}

func (lw *lowerer) newBlock(b Block) int {
	b.ID = len(lw.bin.Blocks)
	lw.bin.Blocks = append(lw.bin.Blocks, b)
	return b.ID
}

func (lw *lowerer) newMarker(m Marker) int {
	m.ID = len(lw.bin.Markers)
	lw.bin.Markers = append(lw.bin.Markers, m)
	return m.ID
}

// lowerProc lowers a symbolled procedure: prologue block with a proc-entry
// marker, then the body.
func (lw *lowerer) lowerProc(proc *program.Proc) *LBody {
	entry := lw.newBlock(Block{
		Instrs:  lw.coef.prologInstrs,
		SrcProc: proc.Index,
		SrcLine: proc.Line,
	})
	lw.newMarker(Marker{
		Kind:            MarkerProcEntry,
		Block:           entry,
		Symbol:          proc.Name,
		Line:            proc.Line,
		EnclosingSymbol: proc.Name,
		SourceLoopID:    -1,
	})
	lw.bin.Symbols = append(lw.bin.Symbols, ProcSym{
		Symbol:     proc.Name,
		ProcIndex:  proc.Index,
		EntryBlock: entry,
	})
	body := &LBody{
		ProcIndex:  proc.Index,
		EntryBlock: entry,
		Stmts:      lw.lowerStmts(proc.Body, ctx{enclosing: proc.Name, proc: proc.Index}),
	}
	return body
}

// ctx carries lowering context down the statement tree.
type ctx struct {
	// enclosing is the innermost symbolled procedure's name.
	enclosing string
	// proc is the source proc whose statements are being lowered (differs
	// from the enclosing symbol's proc inside inline clones).
	proc int
	// inClone is true inside an inlined clone: line info is degraded.
	inClone bool
}

func (lw *lowerer) lowerStmts(stmts []program.Stmt, c ctx) []LStmt {
	var out []LStmt
	for _, s := range stmts {
		switch s := s.(type) {
		case *program.Compute:
			out = append(out, &LBlock{Block: lw.lowerCompute(s, c)})
		case *program.Loop:
			out = append(out, lw.lowerLoop(s, c))
		case *program.Call:
			out = append(out, lw.lowerCall(s, c))
		}
	}
	return out
}

// lowerCompute expands an op mix into a basic block for this target.
func (lw *lowerer) lowerCompute(s *program.Compute, c ctx) int {
	co := lw.coef
	ops := s.Ops
	raw := float64(ops.IntOps)*co.cInt + float64(ops.FPOps)*co.cFP +
		float64(ops.Loads)*co.cLoad + float64(ops.Stores)*co.cStore + co.overhead

	// Non-uniform expansion: deterministic +-12% jitter keyed by target
	// and source line, so different binaries stretch different parts of
	// the program differently (this is what makes fixed-length interval
	// boundaries drift across binaries).
	h := xrand.New(fmt.Sprintf("expand/%s/%s/%d", lw.prog.Name, lw.t, s.Line))
	jitter := 1 + 0.24*(h.Float64()-0.5)
	instrs := int(math.Max(1, math.Round(raw*jitter)))

	spills := 0
	if co.spillFrac > 0 {
		spills = int(co.spillFrac * float64(ops.IntOps+ops.FPOps))
	}
	spillLoads := spills * 2 / 3
	spillStores := spills - spillLoads
	instrs += spills // spill traffic is real instructions too

	fp := int(math.Round(float64(ops.FPOps) * co.cFP * jitter))
	if fp > instrs {
		fp = instrs
	}

	mem := s.Mem
	if ops.Loads > 0 || ops.Stores > 0 {
		if mem.Class == program.MemRandom {
			mem.WorkingSet = uint64(float64(mem.WorkingSet) * co.wsScaleRandom)
		}
	}

	return lw.newBlock(Block{
		Instrs:      instrs,
		FPInstrs:    fp,
		Loads:       ops.Loads,
		Stores:      ops.Stores,
		SpillLoads:  spillLoads,
		SpillStores: spillStores,
		Mem:         mem,
		SrcProc:     c.proc,
		SrcLine:     s.Line,
	})
}

// lowerLoop lowers a loop, applying O2 transformations:
// distribution (inlined clones, >= 3 body statements), restructuring
// (>= 2 directly inlined calls), and unrolling (single compute body).
func (lw *lowerer) lowerLoop(s *program.Loop, c ctx) *LLoop {
	o2 := lw.t.Opt == O2

	// Lower the body first to know which calls got inlined.
	lowerPiece := func(body []program.Stmt, line int, piece int) LoopPiece {
		stmts := lw.lowerStmts(body, c)
		entry := lw.newBlock(Block{
			Instrs: lw.coef.entryInstrs, SrcProc: c.proc, SrcLine: line,
		})
		latch := lw.newBlock(Block{
			Instrs: lw.coef.latchInstrs, SrcProc: c.proc, SrcLine: line,
		})
		lw.newMarker(Marker{
			Kind: MarkerLoopEntry, Block: entry, Line: line,
			EnclosingSymbol: c.enclosing, SourceLoopID: s.ID, Piece: piece,
		})
		lw.newMarker(Marker{
			Kind: MarkerLoopBody, Block: latch, Line: line,
			EnclosingSymbol: c.enclosing, SourceLoopID: s.ID, Piece: piece,
		})
		return LoopPiece{EntryBlock: entry, LatchBlock: latch, Body: stmts}
	}

	line := s.Line
	if c.inClone {
		// Inlined code loses reliable line info (the paper's premise for
		// needing the count-based heuristic).
		line = 0
	}

	// Loop distribution: inside an inline clone at O2, a loop body with
	// >= 3 statements is distributed into two pieces.
	if o2 && c.inClone && len(s.Body) >= 3 {
		p0 := lowerPiece(s.Body[:1], 0, 0)
		p1 := lowerPiece(s.Body[1:], 0, 1)
		return &LLoop{SourceID: s.ID, Unroll: 1, Pieces: []LoopPiece{p0, p1}}
	}

	// Unrolling: innermost loops whose whole body is a single compute.
	unroll := 1
	if o2 && len(s.Body) == 1 {
		if _, isCompute := s.Body[0].(*program.Compute); isCompute {
			unroll = UnrollFactor
		}
	}

	piece := lowerPiece(s.Body, line, 0)

	// Restructuring: at O2 a loop that directly contains >= 2 inlined
	// calls is rewritten after inlining; its own markers lose line info
	// and the latch count changes.
	if o2 && !c.inClone {
		inlinedCalls := 0
		for _, ls := range piece.Body {
			if call, ok := ls.(*LCall); ok && call.Inlined != nil {
				inlinedCalls++
			}
		}
		if inlinedCalls >= 2 {
			lw.bin.Markers[lw.markerOfBlock(piece.EntryBlock)].Line = 0
			lw.bin.Markers[lw.markerOfBlock(piece.LatchBlock)].Line = 0
			unroll = RestructureLatchDiv
		}
	}

	return &LLoop{SourceID: s.ID, Unroll: unroll, Pieces: []LoopPiece{piece}}
}

// markerOfBlock returns the marker index attached to the block. Blocks
// carry at most one marker by construction.
func (lw *lowerer) markerOfBlock(block int) int {
	for i := range lw.bin.Markers {
		if lw.bin.Markers[i].Block == block {
			return i
		}
	}
	panic(fmt.Sprintf("compiler: block %d has no marker", block))
}

func (lw *lowerer) lowerCall(s *program.Call, c ctx) *LCall {
	callee := lw.prog.Procs[s.Callee]
	if lw.inlined[s.Callee] {
		clone := &LBody{
			ProcIndex:  s.Callee,
			EntryBlock: -1,
			Stmts: lw.lowerStmts(callee.Body, ctx{
				enclosing: c.enclosing,
				proc:      s.Callee,
				inClone:   true,
			}),
		}
		return &LCall{SiteBlock: -1, Callee: s.Callee, Inlined: clone}
	}
	site := lw.newBlock(Block{
		Instrs:  lw.coef.callInstrs,
		SrcProc: c.proc,
		SrcLine: s.Line,
	})
	if lw.t.Opt == O0 {
		// Unoptimized calls push arguments through the stack.
		b := &lw.bin.Blocks[site]
		b.SpillStores = 2
		b.SpillLoads = 1
		b.Instrs += 3
	}
	return &LCall{SiteBlock: site, Callee: s.Callee}
}

// walkComputes visits every Compute in a statement tree.
func walkComputes(stmts []program.Stmt, fn func(*program.Compute)) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *program.Compute:
			fn(s)
		case *program.Loop:
			walkComputes(s.Body, fn)
		}
	}
}

// StackMem returns the memory pattern used for spill traffic in this
// binary.
func (b *Binary) StackMem() program.MemPattern {
	return program.MemPattern{
		Region:     b.StackRegion,
		WorkingSet: 4 << 10,
		Stride:     8,
		Class:      program.MemStride,
	}
}
