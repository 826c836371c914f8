package gsd

import "repro/internal/dcmodel"

// SolveWithStats exposes Solver.solve, Solve with the call's Stats, to the
// package's external tests.
func (s *Solver) SolveWithStats(p *dcmodel.SlotProblem) (dcmodel.Solution, Stats, error) {
	return s.solve(p)
}
