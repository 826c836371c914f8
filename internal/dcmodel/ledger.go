package dcmodel

import "math"

// Ledger is the single slot-cost kernel shared by every execution path in
// the repository. The simulation engine (internal/sim), the group-level
// Controller (internal/core), the multi-site federation (internal/geo) and
// the baseline planners (internal/baseline) all charge slots through a
// Ledger, so the paper's accounting — facility power p, grid draw
// y = [p − r]^+ (Eq. 10), priced electricity (Eq. 3), the priced
// M/G/1/PS delay (Eqs. 4–5), switching cost (Fig. 5d) and the per-slot
// carbon deficit y − α·f − z (Eq. 17) — is written exactly once.
//
// Build one Ledger per slot from that slot's environment and discard it;
// its methods take it by pointer, so a charge copies none of its fields.
// The zero value prices nothing but is still well formed (1-hour slots, no
// switching charge).
type Ledger struct {
	PriceUSDPerKWh float64 // w(t): electricity price this slot
	OnsiteKW       float64 // r(t): on-site renewable power this slot
	Beta           float64 // β: dollars per unit of delay cost (Eq. 5)

	// SlotHours is the slot duration in hours; 0 means 1 (the paper's
	// hourly slots). It is the single place the kW→kWh conversion of the
	// discrete-time model lives: grid energy and facility energy scale
	// with it, while delay cost (already a per-slot aggregate) and
	// switching energy (per toggle, not per hour) do not.
	SlotHours float64

	// SwitchCostKWh is the energy-equivalent cost of toggling one server
	// on or off, charged at the slot's electricity price (Fig. 5d).
	SwitchCostKWh float64

	// Alpha and RECPerSlotKWh parameterize the per-slot carbon deficit
	// y − α·f − z of Eqs. (10)/(17).
	Alpha         float64
	RECPerSlotKWh float64
}

// SlotCharge is the fully priced outcome of one slot: the decomposition of
// Eqs. (3)–(5) plus the switching charge and the slot's energy totals.
type SlotCharge struct {
	PowerKW        float64 // p(λ, x): facility power
	EnergyKWh      float64 // p · SlotHours: facility energy incl. on-site-covered power
	GridKWh        float64 // y = [p − r]^+ · SlotHours (Eq. 10)
	ElectricityUSD float64 // e = w · y (Eq. 3)
	DelayCost      float64 // d (Eq. 4), dimensionless
	DelayUSD       float64 // β · d
	SwitchUSD      float64 // w · SwitchCostKWh · |Δ active|
	TotalUSD       float64 // e + β·d + switching (Eq. 5 plus extensions)
}

// Hours returns the slot duration, defaulting to the paper's 1-hour slots.
func (l *Ledger) Hours() float64 {
	if l.SlotHours <= 0 {
		return 1
	}
	return l.SlotHours
}

// EnergyKWh converts facility power over the slot into energy.
func (l *Ledger) EnergyKWh(powerKW float64) float64 {
	return powerKW * l.Hours()
}

// GridKWh returns the slot's grid draw y = [p − r]^+ · SlotHours.
func (l *Ledger) GridKWh(powerKW float64) float64 {
	return math.Max(0, powerKW-l.OnsiteKW) * l.Hours()
}

// ElectricityUSD prices grid energy: w·y (Eq. 3).
func (l *Ledger) ElectricityUSD(gridKWh float64) float64 {
	return l.PriceUSDPerKWh * gridKWh
}

// DelayUSD prices delay cost: β·d (Eq. 5).
func (l *Ledger) DelayUSD(delayCost float64) float64 {
	return l.Beta * delayCost
}

// SwitchUSD charges the Fig. 5(d) toggling cost for a change of
// activeDelta servers at this slot's electricity price.
func (l *Ledger) SwitchUSD(activeDelta int) float64 {
	return l.PriceUSDPerKWh * l.SwitchCostKWh * math.Abs(float64(activeDelta))
}

// Deficit returns the slot's carbon-budget overrun y − α·f − z (can be
// negative); its running sum is the paper's carbon deficit, and its
// positive part drives the Eq. (17) queue update.
func (l *Ledger) Deficit(gridKWh, offsiteKWh float64) float64 {
	return gridKWh - l.Alpha*offsiteKWh - l.RECPerSlotKWh
}

// Charge prices one operated slot: facility power and delay cost from the
// configuration, plus a change of activeDelta active servers against the
// previous slot. It performs no feasibility checks — callers run their own
// load checks first.
func (l *Ledger) Charge(powerKW, delayCost float64, activeDelta int) SlotCharge {
	grid := l.GridKWh(powerKW)
	elec := l.ElectricityUSD(grid)
	delay := l.DelayUSD(delayCost)
	sw := l.SwitchUSD(activeDelta)
	return SlotCharge{
		PowerKW:        powerKW,
		EnergyKWh:      l.EnergyKWh(powerKW),
		GridKWh:        grid,
		ElectricityUSD: elec,
		DelayCost:      delayCost,
		DelayUSD:       delay,
		SwitchUSD:      sw,
		TotalUSD:       elec + delay + sw,
	}
}
