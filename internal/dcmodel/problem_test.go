package dcmodel

import (
	"math"
	"testing"
)

func smallCluster() *Cluster {
	return &Cluster{
		Groups: []Group{
			{Type: Opteron(), N: 10},
			{Type: Opteron(), N: 10},
		},
		Gamma: 0.95,
		PUE:   1,
	}
}

func TestCostBreakdown(t *testing.T) {
	c := smallCluster()
	l := Ledger{PriceUSDPerKWh: 0.05, OnsiteKW: 0, Beta: 0.01}
	speeds := []int{4, 4}
	load := []float64{50, 50}
	cb := c.Charge(&l, speeds, load, 0)
	// Power: 2 groups × (10·0.140 + 0.091·50/10) = 2 × 1.855 = 3.71 kW.
	if math.Abs(cb.PowerKW-3.71) > 1e-9 {
		t.Errorf("PowerKW = %v, want 3.71", cb.PowerKW)
	}
	if math.Abs(cb.GridKWh-3.71) > 1e-9 {
		t.Errorf("GridKWh = %v", cb.GridKWh)
	}
	if math.Abs(cb.ElectricityUSD-0.05*3.71) > 1e-9 {
		t.Errorf("ElectricityUSD = %v", cb.ElectricityUSD)
	}
	// Delay per group: 10·50/(100−50) = 10, total 20.
	if math.Abs(cb.DelayCost-20) > 1e-9 {
		t.Errorf("DelayCost = %v, want 20", cb.DelayCost)
	}
	if math.Abs(cb.TotalUSD-(0.05*3.71+0.01*20)) > 1e-9 {
		t.Errorf("TotalUSD = %v", cb.TotalUSD)
	}
}

func TestCostOnsiteOffsetsGrid(t *testing.T) {
	c := smallCluster()
	speeds := []int{4, 4}
	load := []float64{50, 50}
	// On-site renewables exceed facility power → zero grid draw (Eq. 3's [·]^+).
	cb := c.Charge(&Ledger{PriceUSDPerKWh: 0.05, OnsiteKW: 100, Beta: 0.01}, speeds, load, 0)
	if cb.GridKWh != 0 || cb.ElectricityUSD != 0 {
		t.Errorf("grid = %v, electricity = %v; want 0", cb.GridKWh, cb.ElectricityUSD)
	}
	// Partial offset.
	cb = c.Charge(&Ledger{PriceUSDPerKWh: 0.05, OnsiteKW: 1.71, Beta: 0.01}, speeds, load, 0)
	if math.Abs(cb.GridKWh-2) > 1e-9 {
		t.Errorf("partially offset grid = %v, want 2", cb.GridKWh)
	}
}

func TestP3Weights(t *testing.T) {
	we, wd := P3Weights(240, 17, 0.05, 0.01)
	if math.Abs(we-(240*0.05+17)) > 1e-12 {
		t.Errorf("We = %v", we)
	}
	if math.Abs(wd-2.4) > 1e-12 {
		t.Errorf("Wd = %v", wd)
	}
}

func TestSlotProblemObjectiveMatchesCost(t *testing.T) {
	c := smallCluster()
	speeds := []int{4, 3}
	load := []float64{40, 30}
	pr := SlotProblem{Cluster: c, LambdaRPS: 70, We: 0.05, Wd: 0.01, OnsiteKW: 1}
	cb := c.Charge(&Ledger{PriceUSDPerKWh: 0.05, OnsiteKW: 1, Beta: 0.01}, speeds, load, 0)
	if math.Abs(pr.Objective(speeds, load)-cb.TotalUSD) > 1e-12 {
		t.Errorf("objective %v != cost %v", pr.Objective(speeds, load), cb.TotalUSD)
	}
}

func TestSlotProblemValidate(t *testing.T) {
	c := smallCluster()
	good := SlotProblem{Cluster: c, LambdaRPS: 100, We: 1, Wd: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("valid problem rejected: %v", err)
	}
	cases := []SlotProblem{
		{Cluster: nil, LambdaRPS: 1},
		{Cluster: c, LambdaRPS: -1},
		{Cluster: c, LambdaRPS: 1, We: -1},
		{Cluster: c, LambdaRPS: 1e9}, // beyond capacity
		{Cluster: c, LambdaRPS: math.NaN()},
	}
	for i, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// TestSlotProblemValidateNonFinite pins that Validate and CheckScalars
// reject a NaN or infinite λ, We, Wd or r(t), and a negative weight; a NaN
// weight or supply used to pass and solve to a NaN objective.
func TestSlotProblemValidateNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		edit func(*SlotProblem)
	}{
		{"lambda NaN", func(p *SlotProblem) { p.LambdaRPS = nan }},
		{"lambda +Inf", func(p *SlotProblem) { p.LambdaRPS = inf }},
		{"lambda negative", func(p *SlotProblem) { p.LambdaRPS = -1 }},
		{"We NaN", func(p *SlotProblem) { p.We = nan }},
		{"We +Inf", func(p *SlotProblem) { p.We = inf }},
		{"We negative", func(p *SlotProblem) { p.We = -1 }},
		{"Wd NaN", func(p *SlotProblem) { p.Wd = nan }},
		{"Wd +Inf", func(p *SlotProblem) { p.Wd = inf }},
		{"Wd negative", func(p *SlotProblem) { p.Wd = -1 }},
		{"OnsiteKW NaN", func(p *SlotProblem) { p.OnsiteKW = nan }},
		{"OnsiteKW +Inf", func(p *SlotProblem) { p.OnsiteKW = inf }},
		{"OnsiteKW -Inf", func(p *SlotProblem) { p.OnsiteKW = -inf }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := SlotProblem{Cluster: smallCluster(), LambdaRPS: 100, We: 1, Wd: 1, OnsiteKW: 5}
			if err := p.CheckScalars(); err != nil {
				t.Fatalf("valid scalars rejected: %v", err)
			}
			tc.edit(&p)
			if err := p.Validate(); err == nil {
				t.Error("Validate accepted it")
			}
			if err := p.CheckScalars(); err == nil {
				t.Error("CheckScalars accepted it")
			}
		})
	}
}

func TestSlotProblemFeasibleGate(t *testing.T) {
	c := smallCluster()
	p := SlotProblem{Cluster: c, LambdaRPS: 150, We: 1, Wd: 1}
	if !p.Feasible([]int{4, 4}) {
		t.Error("all-on at top speed should be feasible for λ=150")
	}
	if p.Feasible([]int{4, 0}) {
		t.Error("λ=150 on one group of 10×10 γ=0.95 (cap 95) should be infeasible")
	}
}

func TestSolutionClone(t *testing.T) {
	s := Solution{Speeds: []int{1, 2}, Load: []float64{3, 4}, Value: 5}
	c := s.Clone()
	c.Speeds[0] = 9
	c.Load[0] = 9
	if s.Speeds[0] != 1 || s.Load[0] != 3 {
		t.Error("Clone aliases the original")
	}
	if c.Value != 5 {
		t.Error("Clone lost value")
	}
}

func TestObjectiveInfeasibleLoadIsInf(t *testing.T) {
	c := smallCluster()
	p := SlotProblem{Cluster: c, LambdaRPS: 100, We: 1, Wd: 1}
	if v := p.Objective([]int{4, 0}, []float64{50, 50}); !math.IsInf(v, 1) {
		t.Errorf("load on off group: objective = %v, want +Inf", v)
	}
}

func TestSolutionCopyFrom(t *testing.T) {
	src := Solution{Speeds: []int{1, 2, 3}, Load: []float64{10, 20, 30}, Value: 7}
	var dst Solution
	dst.CopyFrom(&src)
	if dst.Value != 7 || len(dst.Speeds) != 3 || len(dst.Load) != 3 {
		t.Fatalf("CopyFrom produced %+v", dst)
	}
	dst.Speeds[0] = 99
	dst.Load[0] = 99
	if src.Speeds[0] != 1 || src.Load[0] != 10 {
		t.Error("CopyFrom aliases the source")
	}

	// Buffers with capacity are reused, including when the source is shorter.
	reuse := Solution{Speeds: make([]int, 5), Load: make([]float64, 5)}
	speedsBacking := &reuse.Speeds[0]
	reuse.CopyFrom(&src)
	if len(reuse.Speeds) != 3 || len(reuse.Load) != 3 {
		t.Fatalf("CopyFrom wrong shape: %d speeds, %d loads", len(reuse.Speeds), len(reuse.Load))
	}
	if &reuse.Speeds[0] != speedsBacking {
		t.Error("CopyFrom reallocated a buffer with sufficient capacity")
	}
	allocs := testing.AllocsPerRun(100, func() { reuse.CopyFrom(&src) })
	if allocs != 0 {
		t.Errorf("CopyFrom allocated %v objects per run, want 0", allocs)
	}

	// Self-copy is a no-op.
	src.CopyFrom(&src)
	if src.Value != 7 || src.Speeds[0] != 1 || src.Load[0] != 10 {
		t.Errorf("self CopyFrom corrupted the solution: %+v", src)
	}
}
