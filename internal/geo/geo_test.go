package geo

import (
	"math"
	"testing"

	"repro/internal/dcmodel"
	"repro/internal/price"
	"repro/internal/renewable"
	"repro/internal/trace"
)

// makeSites builds a small two-site federation with asymmetric prices:
// site "cheap" pays a third of site "dear".
func makeSites(slots int) []Site {
	mk := func(name string, priceScale float64, n int, seed uint64) Site {
		p := price.CAISOYear(seed)
		for i := range p.Values {
			p.Values[i] *= priceScale
		}
		return Site{
			Name:   name,
			Server: dcmodel.Opteron(),
			N:      n,
			Gamma:  0.95,
			PUE:    1,
			Price:  p,
			Portfolio: &renewable.Portfolio{
				OnsiteKW:   trace.Constant("r", 1, slots),
				OffsiteKWh: trace.Constant("f", 2, slots),
				RECsKWh:    float64(slots) * 3,
				Alpha:      1,
			},
		}
	}
	return []Site{
		mk("cheap", 0.4, 100, 1),
		mk("dear", 1.2, 100, 2),
	}
}

func TestNewSystemValidation(t *testing.T) {
	slots := 48
	good := makeSites(slots)
	if _, err := NewSystem(good, 0.01, slots); err != nil {
		t.Fatalf("valid system rejected: %v", err)
	}
	if _, err := NewSystem(nil, 0.01, slots); err == nil {
		t.Error("empty federation accepted")
	}
	for _, beta := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := NewSystem(good, beta, slots); err == nil {
			t.Errorf("beta %v accepted", beta)
		}
	}
	if _, err := NewSystem(good, 0.01, 0); err == nil {
		t.Error("zero horizon accepted")
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Site)
	}{
		{"empty fleet", func(s *Site) { s.N = 0 }},
		{"gamma 1", func(s *Site) { s.Gamma = 1 }},
		{"gamma NaN", func(s *Site) { s.Gamma = math.NaN() }},
		{"pue<1", func(s *Site) { s.PUE = 0.9 }},
		{"pue NaN", func(s *Site) { s.PUE = math.NaN() }},
		{"pue +Inf", func(s *Site) { s.PUE = math.Inf(1) }},
	} {
		bad := makeSites(slots)
		tc.mutate(&bad[0])
		if _, err := NewSystem(bad, 0.01, slots); err == nil {
			t.Errorf("%s: bad site accepted", tc.name)
		}
	}
}

func TestStepSplitsTowardCheapSite(t *testing.T) {
	slots := 24
	sys, err := NewSystem(makeSites(slots), 0.005, slots)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sys.Step(600, 100)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, so := range out.Sites {
		sum += so.LoadRPS
	}
	if math.Abs(sum-600) > 1e-6 {
		t.Fatalf("split sums to %v, want 600", sum)
	}
	// The cheap site should carry strictly more load.
	if out.Sites[0].LoadRPS <= out.Sites[1].LoadRPS {
		t.Errorf("cheap site got %v, dear site %v", out.Sites[0].LoadRPS, out.Sites[1].LoadRPS)
	}
}

func TestStepBeatsProportionalSplit(t *testing.T) {
	slots := 48
	sitesA := makeSites(slots)
	sysA, err := NewSystem(sitesA, 0.005, slots)
	if err != nil {
		t.Fatal(err)
	}
	sitesB := makeSites(slots)
	sysB, err := NewSystem(sitesB, 0.005, slots)
	if err != nil {
		t.Fatal(err)
	}
	wl := trace.FIUYear(5)
	var smart, naive float64
	for tt := 0; tt < slots; tt++ {
		lambda := 200 + 800*wl.Values[tt]
		oa, err := sysA.Step(lambda, 100)
		if err != nil {
			t.Fatal(err)
		}
		sysA.Settle(oa)
		smart += oa.TotalCostUSD
		ob, err := sysB.ProportionalSplit(lambda, 100)
		if err != nil {
			t.Fatal(err)
		}
		sysB.Settle(ob)
		naive += ob.TotalCostUSD
	}
	if smart > naive*(1+1e-9) {
		t.Errorf("geo-aware split cost %v above proportional %v", smart, naive)
	}
	if smart > naive*0.95 {
		t.Logf("note: saving only %.1f%% — acceptable but small", 100*(1-smart/naive))
	}
}

func TestStepRespectsCapacity(t *testing.T) {
	slots := 10
	sys, err := NewSystem(makeSites(slots), 0.01, slots)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Step(sys.TotalCapacityRPS()+1, 100); err == nil {
		t.Error("over-capacity load accepted")
	}
	if _, err := sys.Step(-1, 100); err == nil {
		t.Error("negative load accepted")
	}
	// Per-site caps: with one site saturated the other absorbs the rest.
	out, err := sys.Step(sys.TotalCapacityRPS()*0.99, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i, so := range out.Sites {
		if so.LoadRPS > sys.Sites[i].CapacityRPS()*(1+1e-9) {
			t.Errorf("site %d overloaded: %v of %v", i, so.LoadRPS, sys.Sites[i].CapacityRPS())
		}
	}
}

func TestQueueFeedbackShiftsLoad(t *testing.T) {
	// Drive one site's deficit queue up and verify the split moves away
	// from it.
	slots := 200
	sites := makeSites(slots)
	// Starve the cheap site's budget so its queue inflates, and give the
	// dear site a budget comfortably above its worst-case draw so its own
	// queue stays empty.
	sites[0].Portfolio.OffsiteKWh = trace.Constant("f", 0, slots)
	sites[0].Portfolio.RECsKWh = 1
	sites[1].Portfolio.RECsKWh = float64(slots) * 50
	sys, err := NewSystem(sites, 0.005, slots)
	if err != nil {
		t.Fatal(err)
	}
	var early, late float64
	for tt := 0; tt < 160; tt++ {
		out, err := sys.Step(600, 100)
		if err != nil {
			t.Fatal(err)
		}
		sys.Settle(out)
		if tt < 20 {
			early += out.Sites[0].LoadRPS
		}
		if tt >= 140 {
			late += out.Sites[0].LoadRPS
		}
	}
	if sys.Queue(0) <= 0 {
		t.Fatal("cheap site's deficit queue never grew")
	}
	if sys.Queue(1) > 0 {
		t.Fatalf("dear site's queue grew (%v) despite the generous budget", sys.Queue(1))
	}
	// The queue-burdened cheap site must shed load over time.
	if late >= early {
		t.Errorf("deficit feedback did not shift load: early %v, late %v", early, late)
	}
}

func TestZeroLoadSlot(t *testing.T) {
	slots := 5
	sys, err := NewSystem(makeSites(slots), 0.01, slots)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sys.Step(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if out.TotalCostUSD != 0 || out.TotalGridKWh != 0 {
		t.Errorf("idle slot not free: %+v", out)
	}
}

func TestHorizonExhaustion(t *testing.T) {
	slots := 2
	sys, err := NewSystem(makeSites(slots), 0.01, slots)
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < slots; tt++ {
		out, err := sys.Step(10, 100)
		if err != nil {
			t.Fatal(err)
		}
		sys.Settle(out)
	}
	if _, err := sys.Step(10, 100); err == nil {
		t.Error("step beyond horizon accepted")
	}
}
