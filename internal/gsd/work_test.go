package gsd

import (
	"math"
	"testing"

	"repro/internal/dcmodel"
)

// TestProposalsSkipTrackedSums pins the O(classes) proposal by count, as
// TestCOCAYearProbesPerSearch pins the plateau search's probes: over
// PaperCluster(200) chains at cocad-decide's settings (500 iterations,
// δ = 10⁴, cocad's V = 5·10⁵ and β = 0.02, and every third hour of its
// synthetic day of demand, price and on-site supply), the tracked sums'
// certificates must leave at most one O(groups) tracked-sum pass per 100
// proposals. A pass changes no bit, so only a count sees an O(groups)
// refresh creep back into SetSpeed, Revert or a reader of the sums.
func TestProposalsSkipTrackedSums(t *testing.T) {
	c := dcmodel.PaperCluster(200)
	servers := float64(c.TotalServers())
	peak := 0.5 * c.Gamma * c.MaxCapacityRPS()
	var sum Stats
	for hour := 0; hour < 24; hour += 3 {
		day := 2 * math.Pi * float64(hour) / 24
		demand := 0.55 + 0.35*math.Sin(day-2*math.Pi*10/24)
		we, wd := dcmodel.P3Weights(5e5, 0, 0.05+0.03*demand, 0.02)
		p := &dcmodel.SlotProblem{
			Cluster: c, LambdaRPS: peak * demand, We: we, Wd: wd,
			OnsiteKW: 0.02 * servers * math.Max(0, math.Sin(day-math.Pi/2)),
		}
		res, err := Solve(p, Options{Delta: 1e4, MaxIters: 500, Seed: uint64(hour)})
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		sum.Iters += st.Iters
		sum.Splits += st.Splits
		sum.Fills += st.Fills
		sum.Gathers += st.Gathers
		sum.ClassSweeps += st.ClassSweeps
		sum.SumPasses += st.SumPasses
	}
	perFill := func(k int) float64 { return float64(k) / float64(sum.Fills) }
	t.Logf("%d proposals, %d splits: %d tracked-sum passes; per fill %.2f gathers and %.2f class sweeps",
		sum.Iters, sum.Splits, sum.SumPasses, perFill(sum.Gathers), perFill(sum.ClassSweeps))
	if sum.Splits < sum.Iters/10 {
		t.Fatalf("only %d splits in %d proposals; the chains no longer exercise the split", sum.Splits, sum.Iters)
	}
	if 100*sum.SumPasses > sum.Iters {
		t.Fatalf("%d tracked-sum passes in %d proposals, want at most one per 100", sum.SumPasses, sum.Iters)
	}
}
