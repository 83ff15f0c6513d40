package kmeans

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/xrand"
)

// lloyd is the reference for Cluster: the plain Lloyd's loop that scans
// every centroid for every point on every iteration, kept only here.
// Cluster must return its Result bit for bit and draw the same random
// numbers.
func lloyd(points [][]float64, k, maxIter int, rng *xrand.RNG) Result {
	n := len(points)
	dim := len(points[0])

	// Forgy initialization from distinct points.
	centroids := make([][]float64, k)
	perm := rng.Perm(n)
	for i := 0; i < k; i++ {
		centroids[i] = append([]float64(nil), points[perm[i]]...)
	}

	assign := make([]int, n)
	sizes := make([]int, k)
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for i, p := range points {
			best, bestD := 0, math.Inf(1)
			for c := range centroids {
				if d := sqDist(p, centroids[c]); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best || iter == 0 {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		// Recompute centroids.
		for c := range centroids {
			for d := 0; d < dim; d++ {
				centroids[c][d] = 0
			}
			sizes[c] = 0
		}
		for i, p := range points {
			c := assign[i]
			sizes[c]++
			for d := 0; d < dim; d++ {
				centroids[c][d] += p[d]
			}
		}
		for c := range centroids {
			if sizes[c] == 0 {
				// Re-seed an empty cluster with a random point.
				copy(centroids[c], points[rng.Intn(n)])
				continue
			}
			inv := 1 / float64(sizes[c])
			for d := 0; d < dim; d++ {
				centroids[c][d] *= inv
			}
		}
	}

	// Final assignment, sizes and SSE.
	for c := range sizes {
		sizes[c] = 0
	}
	var sse float64
	for i, p := range points {
		best, bestD := 0, math.Inf(1)
		for c := range centroids {
			if d := sqDist(p, centroids[c]); d < bestD {
				best, bestD = c, d
			}
		}
		assign[i] = best
		sizes[best]++
		sse += bestD
	}
	r := Result{K: k, Assignment: assign, Centroids: centroids, Sizes: sizes, SSE: sse}
	r.BIC = bic(n, dim, k, sse)
	return r
}

// sameResult reports the first difference between two results, comparing
// floats by their bits.
func sameResult(got, want Result) error {
	if got.K != want.K || len(got.Assignment) != len(want.Assignment) ||
		len(got.Sizes) != len(want.Sizes) || len(got.Centroids) != len(want.Centroids) {
		return fmt.Errorf("shape: K %d/%d, %d/%d points, %d/%d sizes, %d/%d centroids",
			got.K, want.K, len(got.Assignment), len(want.Assignment),
			len(got.Sizes), len(want.Sizes), len(got.Centroids), len(want.Centroids))
	}
	for i := range got.Assignment {
		if got.Assignment[i] != want.Assignment[i] {
			return fmt.Errorf("point %d in cluster %d, want %d", i, got.Assignment[i], want.Assignment[i])
		}
	}
	for c := range got.Sizes {
		if got.Sizes[c] != want.Sizes[c] {
			return fmt.Errorf("cluster %d has %d points, want %d", c, got.Sizes[c], want.Sizes[c])
		}
	}
	for c := range got.Centroids {
		if len(got.Centroids[c]) != len(want.Centroids[c]) {
			return fmt.Errorf("centroid %d has %d dimensions, want %d", c, len(got.Centroids[c]), len(want.Centroids[c]))
		}
		for d := range got.Centroids[c] {
			if math.Float64bits(got.Centroids[c][d]) != math.Float64bits(want.Centroids[c][d]) {
				return fmt.Errorf("centroid %d[%d] = %v, want %v", c, d, got.Centroids[c][d], want.Centroids[c][d])
			}
		}
	}
	if math.Float64bits(got.SSE) != math.Float64bits(want.SSE) {
		return fmt.Errorf("SSE %v, want %v", got.SSE, want.SSE)
	}
	if math.Float64bits(got.BIC) != math.Float64bits(want.BIC) {
		return fmt.Errorf("BIC %v, want %v", got.BIC, want.BIC)
	}
	return nil
}

// adversarialPoints draws a point set built to trip a pruned k-means:
// a few distinct points repeated many times, integer lattices where
// distances tie exactly, blobs at scales from 1e-6 to 1e6, a mix of
// blobs and repeats, or points so large that squared distances overflow,
// some with infinite or NaN coordinates.
func adversarialPoints(rng *xrand.RNG) (string, [][]float64) {
	n := 1 + rng.Intn(120)
	dim := 1 + rng.Intn(6)
	scale := math.Pow(10, float64(rng.Intn(13)-6))
	if rng.Intn(2) == 0 {
		scale *= 1 + rng.Float64() // off powers of ten
	}
	offset := scale * float64(rng.Intn(5)-2) * 10
	pts := make([][]float64, n)
	var kind string
	switch rng.Intn(5) {
	case 0:
		kind = "duplicates"
		distinct := make([][]float64, 1+rng.Intn(8))
		for i := range distinct {
			distinct[i] = make([]float64, dim)
			for d := range distinct[i] {
				distinct[i][d] = offset + scale*rng.NormFloat64()
			}
		}
		for i := range pts {
			pts[i] = append([]float64(nil), distinct[rng.Intn(len(distinct))]...)
		}
	case 1:
		kind = "lattice"
		side := 2 + rng.Intn(3)
		for i := range pts {
			pts[i] = make([]float64, dim)
			for d := range pts[i] {
				pts[i][d] = offset + scale*float64(rng.Intn(side))
			}
		}
	case 2:
		kind = "blobs"
		centers := make([][]float64, 1+rng.Intn(5))
		for c := range centers {
			centers[c] = make([]float64, dim)
			for d := range centers[c] {
				centers[c][d] = offset + 10*scale*rng.NormFloat64()
			}
		}
		for i := range pts {
			ctr := centers[rng.Intn(len(centers))]
			pts[i] = make([]float64, dim)
			for d := range pts[i] {
				pts[i][d] = ctr[d] + scale*rng.NormFloat64()
			}
		}
	case 3:
		kind = "overflow"
		scale = math.Pow(10, float64(150+rng.Intn(10))) // squares overflow near 1e154
		nonFinite := rng.Intn(2) == 0
		for i := range pts {
			pts[i] = make([]float64, dim)
			for d := range pts[i] {
				pts[i][d] = scale * rng.NormFloat64()
			}
			if nonFinite && rng.Intn(8) == 0 {
				pts[i][rng.Intn(dim)] = []float64{math.Inf(1), math.Inf(-1), math.NaN()}[rng.Intn(3)]
			}
		}
	default:
		kind = "blobs+repeats"
		for i := range pts {
			if i > 0 && rng.Intn(3) == 0 {
				pts[i] = append([]float64(nil), pts[rng.Intn(i)]...)
				continue
			}
			pts[i] = make([]float64, dim)
			for d := range pts[i] {
				pts[i][d] = offset + scale*rng.NormFloat64()*float64(1+rng.Intn(3))
			}
		}
	}
	return fmt.Sprintf("%s n=%d dim=%d scale=%.3g", kind, n, dim, scale), pts
}

// TestClusterMatchesLloyd holds the pruned Cluster to the plain loop, bit
// for bit, on seeded adversarial inputs with k from 1 to n and 1 to 60
// iterations, and checks that both drew the same random numbers.
func TestClusterMatchesLloyd(t *testing.T) {
	const inputs = 3000
	gen := xrand.New(20050212)
	for i := 0; i < inputs; i++ {
		desc, pts := adversarialPoints(gen)
		k := 1 + gen.Intn(len(pts))
		if gen.Intn(4) == 0 {
			k = len(pts)
		}
		maxIter := 1 + gen.Intn(60)
		seed := gen.Uint64()
		rngGot, rngWant := xrand.New(seed), xrand.New(seed)
		got, err := Cluster(pts, k, maxIter, rngGot)
		if err != nil {
			t.Fatalf("input %d (%s, k=%d): %v", i, desc, k, err)
		}
		want := lloyd(pts, k, maxIter, rngWant)
		if err := sameResult(got, want); err != nil {
			t.Fatalf("input %d (%s, k=%d, maxIter=%d): %v", i, desc, k, maxIter, err)
		}
		if rngGot.Uint64() != rngWant.Uint64() {
			t.Fatalf("input %d (%s, k=%d, maxIter=%d): Cluster drew a different number of random values", i, desc, k, maxIter)
		}
	}
}

// TestClusterZeroIterations: with no Lloyd iteration, every point goes to
// its nearest Forgy centroid, as in the plain loop.
func TestClusterZeroIterations(t *testing.T) {
	pts, _ := threeBlobs(10, 9)
	got, err := Cluster(pts, 4, 0, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := sameResult(got, lloyd(pts, 4, 0, xrand.New(3))); err != nil {
		t.Fatal(err)
	}
}
