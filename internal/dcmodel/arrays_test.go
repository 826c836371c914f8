package dcmodel

import "testing"

// TestClusterArraysShapes pins the shape ids the load split's class table
// keys on: equal N and bit-identical server-type numbers share an id,
// anything else gets its own, in first-appearance order.
func TestClusterArraysShapes(t *testing.T) {
	gens := HeterogeneousCluster(3, 3)
	distinct := &Cluster{Gamma: 0.95, PUE: 1}
	for g := 0; g < 6; g++ {
		distinct.Groups = append(distinct.Groups, Group{Type: gens.Groups[0].Type, N: 10 + g})
	}
	// halved runs at half the rate on half the power, so 20 halved servers
	// have bit-identical rate and slope rows to 10 Opterons: the rows alone
	// do not tell the two groups apart.
	halved := Opteron()
	halved.StaticKW /= 2
	for i := range halved.Levels {
		halved.Levels[i].BusyKW /= 2
		halved.Levels[i].RateRPS /= 2
	}
	sameRows := &Cluster{Gamma: 0.95, PUE: 1, Groups: []Group{
		{Type: Opteron(), N: 10}, {Type: halved, N: 20}, {Type: Opteron(), N: 10},
	}}
	// noStatic moves the Opteron's idle power into nothing: the computing
	// power BusyKW − StaticKW is bit-identical, so with equal N the rate and
	// slope rows are too, and only the static power (the objective's n·p_s)
	// tells the groups apart.
	noStatic := Opteron()
	noStatic.StaticKW = 0
	for i, l := range Opteron().Levels {
		noStatic.Levels[i].BusyKW = l.BusyKW - Opteron().StaticKW
	}
	sameRowsStatic := &Cluster{Gamma: 0.95, PUE: 1, Groups: []Group{
		{Type: Opteron(), N: 10}, {Type: noStatic, N: 10}, {Type: noStatic, N: 10},
	}}
	ss := NewClusterArrays(sameRowsStatic)
	for k := 0; k < ss.Stride; k++ {
		if ss.Rate(0, k) != ss.Rate(1, k) || ss.Slope(0, k) != ss.Slope(1, k) {
			t.Fatalf("same-rows-static cluster differs at speed %d; the static-only case is not exercised", k)
		}
	}
	cases := []struct {
		name    string
		cluster *Cluster
		want    []int32
	}{
		{"paper-4", PaperCluster(4), []int32{0, 0, 0, 0}},
		{"paper-7-uneven", PaperCluster(7), []int32{0, 0, 0, 0, 0, 0, 1}},
		{"hetero-9", HeterogeneousCluster(90, 9), []int32{0, 1, 2, 0, 1, 2, 0, 1, 2}},
		{"hetero-7-uneven", HeterogeneousCluster(100, 7), []int32{0, 1, 2, 0, 1, 2, 3}},
		{"distinct-n", distinct, []int32{0, 1, 2, 3, 4, 5}},
		{"same-rows-distinct-n", sameRows, []int32{0, 1, 0}},
		{"same-rows-distinct-static", sameRowsStatic, []int32{0, 1, 1}},
	}
	sr := NewClusterArrays(sameRows)
	for k := 0; k < sr.Stride; k++ {
		if sr.Rate(0, k) != sr.Rate(1, k) || sr.Slope(0, k) != sr.Slope(1, k) {
			t.Fatalf("same-rows cluster differs at speed %d; the N-only case is not exercised", k)
		}
	}
	for _, tc := range cases {
		a := NewClusterArrays(tc.cluster)
		if len(a.Shape) != len(tc.want) {
			t.Fatalf("%s: %d shape ids for %d groups", tc.name, len(a.Shape), len(tc.want))
		}
		shapes := 0
		for g, want := range tc.want {
			if a.Shape[g] != want {
				t.Fatalf("%s: Shape = %v, want %v", tc.name, a.Shape, tc.want)
			}
			shapes = max(shapes, int(want)+1)
		}
		if a.Shapes != shapes {
			t.Fatalf("%s: Shapes = %d, want %d", tc.name, a.Shapes, shapes)
		}
		// Groups of one shape must agree bit for bit on every value the load
		// split and the objective read.
		for g := range tc.want {
			for h := range tc.want {
				if a.Shape[g] != a.Shape[h] {
					continue
				}
				tg, th := &tc.cluster.Groups[g].Type, &tc.cluster.Groups[h].Type
				for k := 0; k < a.Stride; k++ {
					if a.Rate(g, k) != a.Rate(h, k) || a.Slope(g, k) != a.Slope(h, k) ||
						a.N[g] != a.N[h] || a.StaticKW[g] != a.StaticKW[h] ||
						(k <= a.NumSpeeds[g] && (tg.Rate(k) != th.Rate(k) || tg.ComputingKW(k) != th.ComputingKW(k))) {
						t.Fatalf("%s: groups %d and %d share shape %d but differ at speed %d",
							tc.name, g, h, a.Shape[g], k)
					}
				}
			}
		}
	}
}
