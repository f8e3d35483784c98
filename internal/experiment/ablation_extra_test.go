package experiment

import (
	"context"
	"testing"
)

func TestAblationWarming(t *testing.T) {
	cfg := ablationConfig()
	cfg.Benchmarks = []string{"crafty", "mcf"}
	tab, err := AblationWarming(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tab, 2)
	// Without warming, small regions start on stale cache state: the CPI
	// error must not improve (and typically worsens clearly).
	withWarming := tab.Rows[0].Values[2]
	withoutWarming := tab.Rows[1].Values[2]
	if withoutWarming < withWarming*0.9 {
		t.Fatalf("disabling warming improved CPI error: %v -> %v", withWarming, withoutWarming)
	}
}

func TestAblationEarlyPoints(t *testing.T) {
	cfg := ablationConfig()
	tab, err := AblationEarlyPoints(context.Background(), cfg, []float64{0, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tab, 2)
	// A tolerant pick can only move points earlier.
	if tab.Rows[1].Values[0] > tab.Rows[0].Values[0]+1e-9 {
		t.Fatalf("early points moved later: %v -> %v", tab.Rows[0].Values[0], tab.Rows[1].Values[0])
	}
}
