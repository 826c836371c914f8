package p3

import "repro/internal/numopt"

// SolveCounted is Solve that also returns how many count searches it ran
// and how many probes of the objective they made.
func SolveCounted(hp *HomogeneousProblem) (sol HomogeneousSolution, searches, probes int, err error) {
	kn := hp.compile()
	sol, err = kn.solve()
	return sol, kn.searches, kn.probes, err
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
