package p3

import "repro/internal/numopt"

// SolveCounts counts the work of one Solve: its count searches, their
// probes of the objective and its aims of the kernel at a speed.
type SolveCounts struct {
	Searches, Probes, Aims int
}

// SolveCounted is Solve that also returns its work counts.
func SolveCounted(hp *HomogeneousProblem) (HomogeneousSolution, SolveCounts, error) {
	kn := speedKernel{hp: hp}
	kn.compile()
	sol, err := kn.solve()
	return sol, SolveCounts{Searches: kn.searches, Probes: kn.probes, Aims: kn.aims}, err
}

// WindowProbes searches every feasible speed's count window of hp and
// returns the number of windows and the probes the kernel search and
// numopt.MinimizeInt make over them.
func WindowProbes(hp *HomogeneousProblem) (windows, probes, refProbes int) {
	ws := speedWindows(hp)
	for _, w := range ws {
		w.kn.search(w.lo, w.hi)
		probes += w.kn.probes
		numopt.MinimizeInt(func(m int) float64 {
			refProbes++
			v, _, _, _ := w.kn.eval(m)
			return v
		}, w.lo, w.hi, 3)
	}
	return len(ws), probes, refProbes
}
