package dcmodel

import (
	"math"
	"testing"
)

func TestLedgerHoursDefault(t *testing.T) {
	var l Ledger
	if l.Hours() != 1 {
		t.Fatalf("zero-value slot duration = %v, want 1", l.Hours())
	}
	l.SlotHours = 0.25
	if l.Hours() != 0.25 {
		t.Fatalf("Hours() = %v, want 0.25", l.Hours())
	}
}

func TestLedgerGridDraw(t *testing.T) {
	l := Ledger{OnsiteKW: 30}
	if got := l.GridKWh(100); got != 70 {
		t.Errorf("grid = %v, want 70", got)
	}
	// On-site surplus is truncated, never credited (the [·]^+ of Eq. 10).
	if got := l.GridKWh(10); got != 0 {
		t.Errorf("grid with surplus = %v, want 0", got)
	}
	// Sub-hourly slots scale the energy.
	l.SlotHours = 0.5
	if got := l.GridKWh(100); got != 35 {
		t.Errorf("half-hour grid = %v, want 35", got)
	}
}

func TestLedgerChargeDecomposition(t *testing.T) {
	l := Ledger{
		PriceUSDPerKWh: 0.08,
		OnsiteKW:       20,
		Beta:           0.01,
		SwitchCostKWh:  0.231,
	}
	ch := l.Charge(120, 50, -3)
	wantGrid := 100.0
	if ch.GridKWh != wantGrid {
		t.Errorf("grid = %v, want %v", ch.GridKWh, wantGrid)
	}
	if ch.EnergyKWh != 120 {
		t.Errorf("energy = %v, want 120", ch.EnergyKWh)
	}
	if want := 0.08 * wantGrid; ch.ElectricityUSD != want {
		t.Errorf("electricity = %v, want %v", ch.ElectricityUSD, want)
	}
	if want := 0.01 * 50.0; ch.DelayUSD != want {
		t.Errorf("delay = %v, want %v", ch.DelayUSD, want)
	}
	if want := 0.08 * 0.231 * 3; math.Abs(ch.SwitchUSD-want) > 1e-15 {
		t.Errorf("switch = %v, want %v", ch.SwitchUSD, want)
	}
	if want := ch.ElectricityUSD + ch.DelayUSD + ch.SwitchUSD; ch.TotalUSD != want {
		t.Errorf("total = %v, want %v", ch.TotalUSD, want)
	}
}

func TestLedgerDeficit(t *testing.T) {
	l := Ledger{Alpha: 0.8, RECPerSlotKWh: 5}
	if got, want := l.Deficit(100, 50), 100-0.8*50-5.0; got != want {
		t.Errorf("deficit = %v, want %v", got, want)
	}
	// Underspend goes negative — the running average can bank credit.
	if got := l.Deficit(0, 50); got >= 0 {
		t.Errorf("deficit with no draw = %v, want negative", got)
	}
}

// TestClusterCostMatchesLedger pins the Cluster.Charge path to the shared
// kernel: the two must agree exactly, switching charge included.
func TestClusterCostMatchesLedger(t *testing.T) {
	c := &Cluster{Groups: []Group{{Type: Opteron(), N: 10}}, Gamma: 0.95, PUE: 1.2}
	speeds := []int{2}
	load := []float64{500}
	l := Ledger{PriceUSDPerKWh: 0.07, OnsiteKW: 2, Beta: 0.02, SwitchCostKWh: 0.05}
	got := c.Charge(&l, speeds, load, -3)
	want := l.Charge(c.FacilityPowerKW(speeds, load), c.DelayCost(speeds, load), -3)
	if got != want {
		t.Errorf("Cluster.Charge = %+v, ledger charge = %+v", got, want)
	}
}
