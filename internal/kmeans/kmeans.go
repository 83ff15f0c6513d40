// Package kmeans implements Lloyd's k-means clustering with multiple random
// restarts and the Bayesian Information Criterion model-selection rule used
// by SimPoint [Sherwood02] to pick the number of program phases, plus the
// random linear projection SimPoint applies to basic-block vectors before
// clustering. Lloyd's assignment step is pruned with Hamerly's distance
// bounds and visits each distinct point once; the result is bit for bit
// the one a scan of every centroid for every point produces.
package kmeans

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/xrand"
)

// Result is one clustering of the data.
type Result struct {
	K          int
	Assignment []int       // point -> cluster
	Centroids  [][]float64 // K x dim
	Sizes      []int       // points per cluster
	SSE        float64     // total within-cluster sum of squared distances
	BIC        float64
}

// Project reduces each vector to dim dimensions with a random projection
// matrix derived deterministically from seed (SimPoint's "seedproj").
// Entries are uniform in [-1, 1].
func Project(vecs [][]float64, dim int, seed uint64) [][]float64 {
	if len(vecs) == 0 {
		return nil
	}
	in := len(vecs[0])
	if dim >= in {
		// Nothing to gain; return copies so callers may mutate freely.
		out := make([][]float64, len(vecs))
		for i, v := range vecs {
			out[i] = append([]float64(nil), v...)
		}
		return out
	}
	rng := xrand.New(seed)
	mat := make([]float64, in*dim)
	for i := range mat {
		mat[i] = 2*rng.Float64() - 1
	}
	out := make([][]float64, len(vecs))
	for i, v := range vecs {
		p := make([]float64, dim)
		for j := 0; j < in; j++ {
			x := v[j]
			if x == 0 {
				continue
			}
			row := mat[j*dim : (j+1)*dim]
			for d := 0; d < dim; d++ {
				p[d] += x * row[d]
			}
		}
		out[i] = p
	}
	return out
}

func sqDist(a, b []float64) float64 {
	b = b[:len(a)]
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Cluster runs Lloyd's algorithm once from a Forgy initialization drawn
// from rng, for at most maxIter iterations. An empty cluster is re-seeded
// with a point drawn at random. All points must have the same dimension.
//
// Each point goes to its nearest centroid, the first one on a tie, exactly
// as if every centroid were scanned: a point's scan is skipped only when
// its bounds prove its centroid nearer than every other by a margin far
// above rounding error. Centroids are recomputed from scratch each
// iteration, summing their points in point order, so the result does not
// depend on which scans were skipped.
func Cluster(points [][]float64, k, maxIter int, rng *xrand.RNG) (Result, error) {
	n := len(points)
	if n == 0 {
		return Result{}, fmt.Errorf("kmeans: no points")
	}
	if k <= 0 || k > n {
		return Result{}, fmt.Errorf("kmeans: k=%d out of range for %d points", k, n)
	}
	ds, err := newDataset(points)
	if err != nil {
		return Result{}, err
	}
	return ds.cluster(k, maxIter, rng), nil
}

// dataset is a point set prepared for clustering. Identical points are
// stored once, in flat storage: a point's distances, nearest centroid and
// bounds depend only on its value, so they are computed once per distinct
// point, while every sum over points still runs over the input points in
// their order, which fixes its rounding.
type dataset struct {
	n, dim   int
	distinct int       // number of distinct points
	pts      []float64 // distinct points, distinct x dim, in order of first occurrence
	of       []int     // input point -> distinct point
	// tau is the pruning margin. It lies far above the rounding error of
	// any computed distance or bound, so a point skips the scan of every
	// centroid only when its own centroid is nearer than every other by
	// more than tau, and the scan would find it too.
	tau float64
}

func newDataset(points [][]float64) (*dataset, error) {
	dim := len(points[0])
	ds := &dataset{n: len(points), dim: dim, of: make([]int, len(points))}
	index := make(map[string]int)
	key := make([]byte, 8*dim)
	var maxAbs float64
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("kmeans: point %d has %d dimensions, point 0 has %d", i, len(p), dim)
		}
		for d, x := range p {
			binary.LittleEndian.PutUint64(key[8*d:], math.Float64bits(x))
			maxAbs = max(maxAbs, math.Abs(x))
		}
		j, ok := index[string(key)]
		if !ok {
			j = len(index)
			index[string(key)] = j
			ds.pts = append(ds.pts, p...)
		}
		ds.of[i] = j
	}
	ds.distinct = len(index)
	ds.tau = 1e-9 * (1 + maxAbs) * math.Sqrt(float64(dim))
	if !(maxAbs < 1e100) {
		// Squared distances may overflow (or the data is not finite):
		// never skip a scan.
		ds.tau = math.Inf(1)
	}
	return ds, nil
}

func (ds *dataset) point(j int) []float64 { return ds.pts[j*ds.dim : (j+1)*ds.dim] }

// clustering is one run of Lloyd's algorithm over a dataset, pruned with
// Hamerly's bounds: for each distinct point, an upper bound on the
// distance to its own centroid and a lower bound on the distance to every
// other; for each centroid, half the distance to its nearest neighbour.
// All bounds are on distances, not squared distances, so the triangle
// inequality moves them when centroids move.
type clustering struct {
	ds     *dataset
	k      int
	cent   []float64 // k x dim
	prev   []float64 // the centroids before the last update
	assign []int     // distinct point -> cluster
	upper  []float64 // distinct point -> bound on the distance to its centroid
	lower  []float64 // distinct point -> bound on the distance to every other centroid
	dist2  []float64 // distinct point -> squared distance to its centroid, if just computed
	half   []float64 // centroid -> half the distance to its nearest other centroid
	moved  []float64 // centroid -> distance moved by the last update
	sizes  []int
}

func (c *clustering) centroid(o int) []float64 {
	return c.cent[o*c.ds.dim : (o+1)*c.ds.dim]
}

func (ds *dataset) cluster(k, maxIter int, rng *xrand.RNG) Result {
	nd := ds.distinct
	c := &clustering{
		ds:     ds,
		k:      k,
		cent:   make([]float64, k*ds.dim),
		prev:   make([]float64, k*ds.dim),
		assign: make([]int, nd),
		upper:  make([]float64, nd),
		lower:  make([]float64, nd),
		dist2:  make([]float64, nd),
		half:   make([]float64, k),
		moved:  make([]float64, k),
		sizes:  make([]int, k),
	}
	// Forgy initialization: the first k points of a random permutation.
	// Every point starts in cluster 0 with no usable bound.
	perm := rng.Perm(ds.n)
	for o := 0; o < k; o++ {
		copy(c.centroid(o), ds.point(ds.of[perm[o]]))
	}
	for j := range c.upper {
		c.upper[j] = math.Inf(1)
	}
	for iter := 0; iter < maxIter; iter++ {
		if !c.reassign(false) && iter > 0 {
			break
		}
		c.update(rng)
	}
	c.reassign(true)
	return c.result()
}

// reassign moves every distinct point to its nearest centroid, the first
// one on a tie, as a scan of every centroid would, and reports whether any
// point changed cluster. A point skips the scan when its bounds prove its
// centroid nearer than every other by the margin. With exact set, every
// point's squared distance to its centroid is computed (dist2), as the
// final SSE needs it.
func (c *clustering) reassign(exact bool) (changed bool) {
	c.halfDistances()
	tau := c.ds.tau
	for j, a := range c.assign {
		m := c.half[a]
		if c.lower[j] > m {
			m = c.lower[j]
		}
		if !exact && c.upper[j]+tau < m {
			continue
		}
		p := c.ds.point(j)
		d2 := sqDist(p, c.centroid(a))
		c.upper[j], c.dist2[j] = math.Sqrt(d2), d2
		if c.upper[j]+tau < m {
			continue
		}
		best, bestD, second := 0, math.Inf(1), math.Inf(1)
		for o := 0; o < c.k; o++ {
			if d := sqDist(p, c.centroid(o)); d < bestD {
				best, bestD, second = o, d, bestD
			} else if d < second {
				second = d
			}
		}
		c.upper[j], c.lower[j], c.dist2[j] = math.Sqrt(bestD), math.Sqrt(second), bestD
		if best != a {
			c.assign[j] = best
			changed = true
		}
	}
	return changed
}

// halfDistances sets half[o] to half the distance from centroid o to its
// nearest other centroid: a point nearer than that to o is nearest to o.
func (c *clustering) halfDistances() {
	for o := range c.half {
		c.half[o] = math.Inf(1)
	}
	for a := 0; a < c.k; a++ {
		ca := c.centroid(a)
		for b := a + 1; b < c.k; b++ {
			h := math.Sqrt(sqDist(ca, c.centroid(b))) / 2
			if h < c.half[a] {
				c.half[a] = h
			}
			if h < c.half[b] {
				c.half[b] = h
			}
		}
	}
}

// update recomputes every centroid from scratch, summing its points in
// point order and scaling by 1/size, re-seeds each empty cluster in
// cluster order with a random point, and loosens the bounds by how far
// the centroids moved.
func (c *clustering) update(rng *xrand.RNG) {
	ds := c.ds
	c.prev, c.cent = c.cent, c.prev
	clear(c.cent)
	clear(c.sizes)
	for _, j := range ds.of {
		o := c.assign[j]
		c.sizes[o]++
		row, p := c.centroid(o), ds.point(j)
		for d := range row {
			row[d] += p[d]
		}
	}
	for o, size := range c.sizes {
		row := c.centroid(o)
		if size == 0 {
			copy(row, ds.point(ds.of[rng.Intn(ds.n)]))
			continue
		}
		inv := 1 / float64(size)
		for d := range row {
			row[d] *= inv
		}
	}

	// A point's own centroid moved by moved[a]; every other centroid
	// moved by at most the largest move among the others.
	var max1, max2 float64
	argMax := -1
	for o := range c.moved {
		m := math.Sqrt(sqDist(c.prev[o*ds.dim:(o+1)*ds.dim], c.centroid(o)))
		c.moved[o] = m
		if m > max1 {
			max1, max2, argMax = m, max1, o
		} else if m > max2 {
			max2 = m
		}
	}
	for j, a := range c.assign {
		c.upper[j] += c.moved[a]
		if a == argMax {
			c.lower[j] -= max2
		} else {
			c.lower[j] -= max1
		}
	}
}

// result expands the distinct points' clusters to the input points and
// sums the SSE in point order.
func (c *clustering) result() Result {
	ds := c.ds
	assignment := make([]int, ds.n)
	clear(c.sizes)
	var sse float64
	for i, j := range ds.of {
		a := c.assign[j]
		assignment[i] = a
		c.sizes[a]++
		sse += c.dist2[j]
	}
	centroids := make([][]float64, c.k)
	for o := range centroids {
		centroids[o] = c.centroid(o)[:ds.dim:ds.dim]
	}
	r := Result{K: c.k, Assignment: assignment, Centroids: centroids, Sizes: c.sizes, SSE: sse}
	r.BIC = bic(ds.n, ds.dim, c.k, sse)
	return r
}

// bic computes the spherical-Gaussian BIC score used by SimPoint: the model
// log-likelihood penalized by the parameter count times log(n)/2. Larger is
// better.
func bic(n, dim, k int, sse float64) float64 {
	if n <= k {
		return math.Inf(-1)
	}
	variance := sse / float64(n-k)
	if variance <= 0 {
		variance = 1e-12
	}
	nf := float64(n)
	logLik := -nf / 2 * (math.Log(2*math.Pi*variance)*float64(dim) + 1)
	params := float64(k * (dim + 1)) // centroids + mixing proportions
	return logLik - params/2*math.Log(nf)
}

// KSchedule returns the k values searched for a given maxK: exhaustive up
// to 8, then geometric steps (~1.3x). SimPoint 1.0 searched every k, which
// is quadratic in maxK; the later SimPoint releases search a sparse
// schedule, which is what large maxK values use here.
func KSchedule(maxK int) []int {
	var ks []int
	for k := 1; k <= maxK && k <= 8; k++ {
		ks = append(ks, k)
	}
	k := 8
	for k < maxK {
		k = k*13/10 + 1
		if k > maxK {
			k = maxK
		}
		ks = append(ks, k)
	}
	return ks
}

// Best clusters with k over KSchedule(maxK), trying `seeds` random restarts
// for each k (SimPoint 1.0 uses multiple random seeds), and returns the
// result chosen by the SimPoint rule: the smallest k whose best BIC reaches
// at least bicThreshold (e.g. 0.9) of the way from the worst to the best
// BIC observed. Identical points are found once per call and shared by
// every clustering it runs.
func Best(points [][]float64, maxK, seeds, maxIter int, bicThreshold float64, seed uint64) (Result, error) {
	if maxK > len(points) {
		maxK = len(points)
	}
	if maxK < 1 {
		return Result{}, fmt.Errorf("kmeans: no points")
	}
	ds, err := newDataset(points)
	if err != nil {
		return Result{}, err
	}
	schedule := KSchedule(maxK)
	results := make([]Result, 0, len(schedule))
	bestBIC, worstBIC := math.Inf(-1), math.Inf(1)
	for _, k := range schedule {
		var best Result
		bestSSE := math.Inf(1)
		for s := 0; s < seeds; s++ {
			r := ds.cluster(k, maxIter, xrand.New(seed+uint64(k)*1e6+uint64(s)))
			if r.SSE < bestSSE {
				bestSSE = r.SSE
				best = r
			}
		}
		results = append(results, best)
		if best.BIC > bestBIC {
			bestBIC = best.BIC
		}
		if best.BIC < worstBIC {
			worstBIC = best.BIC
		}
	}
	span := bestBIC - worstBIC
	for _, r := range results {
		if span == 0 || r.BIC >= worstBIC+bicThreshold*span {
			return r, nil
		}
	}
	return results[len(results)-1], nil
}

// Representative returns, for each cluster, the index of the point closest
// to its centroid (SimPoint's simulation-point selection rule).
func Representative(points [][]float64, r Result) []int {
	reps := make([]int, r.K)
	bestD := make([]float64, r.K)
	for c := range reps {
		reps[c] = -1
		bestD[c] = math.Inf(1)
	}
	for i, p := range points {
		c := r.Assignment[i]
		if d := sqDist(p, r.Centroids[c]); d < bestD[c] {
			bestD[c] = d
			reps[c] = i
		}
	}
	return reps
}
