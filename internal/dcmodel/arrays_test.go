package dcmodel

import "testing"

// TestClusterArraysShapes pins the shape ids the load split's class table
// keys on: equal N and bit-identical rate/slope rows share an id, anything
// else gets its own, in first-appearance order.
func TestClusterArraysShapes(t *testing.T) {
	gens := HeterogeneousCluster(3, 3)
	distinct := &Cluster{Gamma: 0.95, PUE: 1}
	for g := 0; g < 6; g++ {
		distinct.Groups = append(distinct.Groups, Group{Type: gens.Groups[0].Type, N: 10 + g})
	}
	// halved runs at half the rate on half the power, so 20 halved servers
	// have bit-identical rate and slope rows to 10 Opterons: only N tells
	// the two groups apart.
	halved := Opteron()
	halved.StaticKW /= 2
	for i := range halved.Levels {
		halved.Levels[i].BusyKW /= 2
		halved.Levels[i].RateRPS /= 2
	}
	sameRows := &Cluster{Gamma: 0.95, PUE: 1, Groups: []Group{
		{Type: Opteron(), N: 10}, {Type: halved, N: 20}, {Type: Opteron(), N: 10},
	}}
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
		// Groups of one shape must agree bit for bit on every row value.
		for g := range tc.want {
			for h := range tc.want {
				if a.Shape[g] != a.Shape[h] {
					continue
				}
				for k := 0; k < a.Stride; k++ {
					if a.Rate(g, k) != a.Rate(h, k) || a.Slope(g, k) != a.Slope(h, k) || a.N[g] != a.N[h] {
						t.Fatalf("%s: groups %d and %d share shape %d but differ at speed %d",
							tc.name, g, h, a.Shape[g], k)
					}
				}
			}
		}
	}
}
