package kmeans

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// threeBlobs generates three well-separated Gaussian clusters.
func threeBlobs(n int, seed uint64) ([][]float64, []int) {
	rng := xrand.New(seed)
	centers := [][]float64{{0, 0}, {10, 10}, {-10, 8}}
	pts := make([][]float64, 0, 3*n)
	truth := make([]int, 0, 3*n)
	for c, ctr := range centers {
		for i := 0; i < n; i++ {
			pts = append(pts, []float64{
				ctr[0] + rng.NormFloat64()*0.5,
				ctr[1] + rng.NormFloat64()*0.5,
			})
			truth = append(truth, c)
		}
	}
	return pts, truth
}

func TestClusterRecoversBlobs(t *testing.T) {
	pts, truth := threeBlobs(50, 1)
	r, err := Cluster(pts, 3, 100, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	// Every true cluster must map to exactly one k-means cluster.
	mapping := map[int]int{}
	for i, a := range r.Assignment {
		if prev, ok := mapping[truth[i]]; ok && prev != a {
			t.Fatalf("true cluster %d split across k-means clusters %d and %d", truth[i], prev, a)
		}
		mapping[truth[i]] = a
	}
	if len(mapping) != 3 {
		t.Errorf("recovered %d clusters, want 3", len(mapping))
	}
}

func TestClusterErrors(t *testing.T) {
	if _, err := Cluster(nil, 1, 10, xrand.New(1)); err == nil {
		t.Error("no points accepted")
	}
	pts, _ := threeBlobs(2, 1)
	if _, err := Cluster(pts, 0, 10, xrand.New(1)); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Cluster(pts, len(pts)+1, 10, xrand.New(1)); err == nil {
		t.Error("k>n accepted")
	}
	ragged := append(pts[:len(pts):len(pts)], []float64{1})
	if _, err := Cluster(ragged, 1, 10, xrand.New(1)); err == nil {
		t.Error("points of different dimensions accepted")
	}
	if _, err := Best(ragged, 2, 1, 10, 0.9, 1); err == nil {
		t.Error("Best accepted points of different dimensions")
	}
}

func TestBestSelectsAroundTrueK(t *testing.T) {
	pts, _ := threeBlobs(40, 2)
	r, err := Best(pts, 10, 3, 100, 0.9, 42)
	if err != nil {
		t.Fatal(err)
	}
	if r.K < 3 || r.K > 5 {
		t.Errorf("BIC-selected k = %d, want close to 3", r.K)
	}
	// SSE at chosen k must be far below k=1.
	r1, _ := Cluster(pts, 1, 100, xrand.New(1))
	if r.SSE > r1.SSE/5 {
		t.Errorf("selected clustering barely better than k=1: %v vs %v", r.SSE, r1.SSE)
	}
}

func TestRepresentativeIsClosestToCentroid(t *testing.T) {
	pts, _ := threeBlobs(30, 3)
	r, err := Cluster(pts, 3, 100, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	reps := Representative(pts, r)
	for c, rep := range reps {
		if rep < 0 {
			t.Fatalf("cluster %d has no representative", c)
		}
		if r.Assignment[rep] != c {
			t.Errorf("representative %d not in its own cluster %d", rep, c)
		}
		dRep := sqDist(pts[rep], r.Centroids[c])
		for i, p := range pts {
			if r.Assignment[i] == c && sqDist(p, r.Centroids[c]) < dRep-1e-12 {
				t.Errorf("cluster %d: point %d closer to centroid than representative", c, i)
			}
		}
	}
}

func TestProjectPreservesCountAndDim(t *testing.T) {
	pts, _ := threeBlobs(10, 4)
	// Expand to 20 dims by padding.
	wide := make([][]float64, len(pts))
	for i, p := range pts {
		w := make([]float64, 20)
		copy(w, p)
		wide[i] = w
	}
	proj := Project(wide, 5, 9)
	if len(proj) != len(wide) || len(proj[0]) != 5 {
		t.Fatalf("projection shape wrong: %dx%d", len(proj), len(proj[0]))
	}
	// Deterministic for the same seed.
	proj2 := Project(wide, 5, 9)
	for i := range proj {
		for d := range proj[i] {
			if proj[i][d] != proj2[i][d] {
				t.Fatal("projection not deterministic")
			}
		}
	}
	// Dim >= input dim returns copies.
	same := Project(pts, 2, 9)
	same[0][0] = 999
	if pts[0][0] == 999 {
		t.Error("Project with dim >= input must copy, not alias")
	}
}

// Property: total SSE never increases when k increases (using the best of
// several seeds to dodge local minima).
func TestSSEMonotoneInK(t *testing.T) {
	pts, _ := threeBlobs(20, 6)
	best := func(k int) float64 {
		sse := math.Inf(1)
		for s := uint64(0); s < 5; s++ {
			r, err := Cluster(pts, k, 100, xrand.New(s))
			if err != nil {
				t.Fatal(err)
			}
			if r.SSE < sse {
				sse = r.SSE
			}
		}
		return sse
	}
	prev := math.Inf(1)
	for k := 1; k <= 6; k++ {
		s := best(k)
		if s > prev*1.001 {
			t.Errorf("SSE rose from %v to %v at k=%d", prev, s, k)
		}
		prev = s
	}
}

// Property: every point is assigned to its nearest centroid on return.
func TestAssignmentOptimality(t *testing.T) {
	f := func(seed uint64) bool {
		pts, _ := threeBlobs(15, seed%100)
		r, err := Cluster(pts, 4, 50, xrand.New(seed))
		if err != nil {
			return false
		}
		for i, p := range pts {
			di := sqDist(p, r.Centroids[r.Assignment[i]])
			for c := range r.Centroids {
				if sqDist(p, r.Centroids[c]) < di-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestClusterSizesSumToN(t *testing.T) {
	pts, _ := threeBlobs(25, 8)
	r, err := Cluster(pts, 5, 50, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range r.Sizes {
		total += s
	}
	if total != len(pts) {
		t.Errorf("sizes sum to %d, want %d", total, len(pts))
	}
}
