package xbsim

import (
	"context"
	"fmt"
	"math"
	"testing"

	"xbsim/internal/cmpsim"
	"xbsim/internal/exec"
	"xbsim/internal/experiment"
	"xbsim/internal/pinpoints"
	"xbsim/internal/profile"
)

// The reference gated walk below is the region-gated simulation
// EstimateStats used to run: the simulator is enabled only inside the
// chosen intervals (functional warming in between) and each chosen
// interval's statistics are recorded as it is left. It is kept verbatim
// as the oracle EstimateStats' full-walk attribution must match.

type refRegionStat struct {
	instr, cycles      uint64
	accesses, l1Misses uint64
	dram               uint64
}

// refRegionGate gates the simulator to the chosen intervals and records
// per-interval deltas.
type refRegionGate struct {
	sim     *cmpsim.Simulator
	chosen  map[int]bool
	cur     int
	last    refRegionStat
	regions map[int]refRegionStat
}

// Transition implements profile.IntervalSink.
func (g *refRegionGate) Transition(i int) {
	if i == g.cur {
		return
	}
	g.flush()
	g.cur = i
	g.sim.SetEnabled(g.chosen[i])
}

func (g *refRegionGate) flush() {
	st := g.sim.Stats()
	now := refRegionStat{
		instr:    st.Instructions,
		cycles:   st.Cycles,
		accesses: st.Loads + st.Stores,
		l1Misses: st.LevelMisses[0],
		dram:     st.MemoryAccesses,
	}
	if g.chosen[g.cur] {
		r := g.regions[g.cur]
		r.instr += now.instr - g.last.instr
		r.cycles += now.cycles - g.last.cycles
		r.accesses += now.accesses - g.last.accesses
		r.l1Misses += now.l1Misses - g.last.l1Misses
		r.dram += now.dram - g.last.dram
		g.regions[g.cur] = r
	}
	g.last = now
}

func refSimulateRegions(ctx context.Context, bin *Binary, in Input, sim *cmpsim.Simulator, ps *PointSet) (map[int]refRegionStat, error) {
	chosen := map[int]bool{}
	for _, iv := range ps.PointInterval {
		if iv >= 0 {
			chosen[iv] = true
		}
	}
	gate := &refRegionGate{sim: sim, chosen: chosen, regions: map[int]refRegionStat{}}
	sim.SetEnabled(chosen[0])
	var tracker exec.Visitor
	switch ps.Flavor {
	case pinpoints.FlavorFLI:
		tracker = profile.NewFLITracker(bin, ps.fliEnds, gate)
	case pinpoints.FlavorVLI:
		tracker = profile.NewVLITracker(bin, ps.vliEnds, gate)
	default:
		return nil, fmt.Errorf("xbsim: unknown flavor %q", ps.Flavor)
	}
	if err := exec.RunCtx(ctx, bin, in, exec.Multi{sim, tracker}); err != nil {
		return nil, err
	}
	gate.flush()
	return gate.regions, nil
}

// refEstimate weights the reference gated walk's regions: the CPI by
// experiment.WeightedCPI, the L1 miss rate and DRAM traffic by their own
// terms over the same kept weight.
func refEstimate(t *testing.T, ps *PointSet, h HierarchyConfig) SampledEstimate {
	t.Helper()
	sim, err := cmpsim.NewSimulator(ps.Binary, h)
	if err != nil {
		t.Fatal(err)
	}
	regions, err := refSimulateRegions(context.Background(), ps.Binary, testInput, sim, ps)
	if err != nil {
		t.Fatal(err)
	}
	var est SampledEstimate
	var wsum float64
	pointCPI := make([]float64, len(ps.PointInterval))
	for p, iv := range ps.PointInterval {
		pointCPI[p] = math.NaN()
		w := ps.Weights[p]
		if iv < 0 || w <= 0 {
			continue
		}
		st := regions[iv]
		if st.instr == 0 {
			t.Fatalf("%s: reference walk measured nothing in interval %d", ps.Binary.Name, iv)
		}
		pointCPI[p] = float64(st.cycles) / float64(st.instr)
		if st.accesses > 0 {
			est.L1MissRate += w * float64(st.l1Misses) / float64(st.accesses)
		}
		est.DRAMPerKI += w * float64(st.dram) / float64(st.instr) * 1000
		wsum += w
	}
	if est.CPI, err = experiment.WeightedCPI(ps.Weights, pointCPI); err != nil {
		t.Fatal(err)
	}
	est.L1MissRate /= wsum
	est.DRAMPerKI /= wsum
	return est
}

// TestEstimateStatsMatchesGatedWalk pins EstimateStats, which reads each
// point's statistics from one full walk's per-interval attribution,
// against the reference gated walk, bit for bit, for FLI and VLI point
// sets under Table 1 and three hierarchies that change capacity,
// replacement with prefetching, and depth.
func TestEstimateStatsMatchesGatedWalk(t *testing.T) {
	ctx := context.Background()
	vary := func(edit func(*HierarchyConfig)) HierarchyConfig {
		h := Table1()
		edit(&h)
		return h
	}
	hierarchies := []struct {
		name string
		h    HierarchyConfig
	}{
		{"table1", Table1()},
		{"256k-l2", vary(func(h *HierarchyConfig) { h.Levels[1].CapacityBytes = 256 << 10 })},
		{"random-prefetch-l2", vary(func(h *HierarchyConfig) {
			h.Levels[1].Replacement = cmpsim.Random
			h.Levels[1].NextLinePrefetch = true
		})},
		{"no-l3", vary(func(h *HierarchyConfig) { h.Levels = h.Levels[:2] })},
	}
	for _, name := range []string{"gzip", "mcf", "applu"} {
		b := testBenchmark(t, name)
		a := testAnalysis(t, b, testConfig())
		cross, err := a.CrossBinaryPoints(ctx)
		if err != nil {
			t.Fatal(err)
		}
		var sets []*PointSet
		for bi := range b.Binaries {
			fli, err := a.PerBinaryPoints(ctx, bi)
			if err != nil {
				t.Fatal(err)
			}
			vli, err := cross.ForBinary(bi)
			if err != nil {
				t.Fatal(err)
			}
			sets = append(sets, fli, vli)
		}
		for _, hc := range hierarchies {
			for _, ps := range sets {
				got, err := EstimateStats(ctx, ps.Binary, testInput, ps, &hc.h)
				if err != nil {
					t.Fatal(err)
				}
				want := refEstimate(t, ps, hc.h)
				if math.Float64bits(got.CPI) != math.Float64bits(want.CPI) ||
					math.Float64bits(got.L1MissRate) != math.Float64bits(want.L1MissRate) ||
					math.Float64bits(got.DRAMPerKI) != math.Float64bits(want.DRAMPerKI) {
					t.Errorf("%s %s %s: EstimateStats %+v, gated walk %+v",
						hc.name, ps.Binary.Name, ps.Flavor, *got, want)
				}
			}
		}
	}
}
