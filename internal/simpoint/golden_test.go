package simpoint

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/kmeans"
	"repro/internal/sim"
	"repro/internal/xrand"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_plans.jsonl from the current clustering")

const goldenPath = "testdata/golden_plans.jsonl"

// goldenRecord is one line of the corpus: a name and the FNV-1a 64
// digests of what it covers. A clustering line holds one digest per
// restart seed of one k; a best or plan line holds one digest.
type goldenRecord struct {
	Name    string   `json:"name"`
	Digests []string `json:"digests"`
}

// digest hashes words in little-endian order.
type digest []uint64

func (d digest) String() string {
	h := fnv.New64a()
	buf := make([]byte, 0, 8*len(d))
	for _, w := range d {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	h.Write(buf)
	return fmt.Sprintf("%016x", h.Sum64())
}

// resultDigest covers every field of a clustering: K, the assignment,
// the sizes, and the centroids, SSE and BIC as float bits.
func resultDigest(r kmeans.Result) string {
	d := digest{uint64(r.K), uint64(len(r.Assignment))}
	for _, a := range r.Assignment {
		d = append(d, uint64(a))
	}
	for _, s := range r.Sizes {
		d = append(d, uint64(s))
	}
	for _, c := range r.Centroids {
		for _, x := range c {
			d = append(d, math.Float64bits(x))
		}
	}
	d = append(d, math.Float64bits(r.SSE), math.Float64bits(r.BIC))
	return d.String()
}

// planDigest covers the chosen k and every simulation point.
func planDigest(p *Plan) string {
	d := digest{uint64(p.K), uint64(len(p.Points))}
	for _, pt := range p.Points {
		d = append(d, uint64(pt.Interval), pt.Start, math.Float64bits(pt.Weight))
	}
	return d.String()
}

// goldenCase is one plan configuration on one program.
type goldenCase struct {
	prog bench.Name
	cfg  Config
}

// goldenCases lists the corpus: every reference program at test scale
// under the three Table 1 permutations as core.SimPoint configures them
// (3 seeds, 40 iterations), and the paper's 7 x 100 clustering effort
// for 10M intervals at max_k 100 on three programs.
func goldenCases() []goldenCase {
	scale := sim.ScaleTest
	var out []goldenCase
	for _, b := range bench.All() {
		for _, perm := range []struct {
			intervalM float64
			maxK      int
		}{{100, 1}, {10, 100}, {100, 10}} {
			cfg := DefaultConfig(scale.Instr(perm.intervalM), perm.maxK)
			cfg.Seeds, cfg.MaxIter = 3, 40
			out = append(out, goldenCase{b, cfg})
		}
	}
	for _, b := range []bench.Name{bench.Gcc, bench.Art, bench.Perlbmk} {
		out = append(out, goldenCase{b, DefaultConfig(scale.Instr(10), 100)})
	}
	return out
}

// bbvPoints rebuilds the projected basic-block vectors BuildPlan
// clustered from the plan's interval profiles.
func bbvPoints(p *Plan) [][]float64 {
	vecs := make([][]float64, len(p.IntervalProfiles))
	for i, prof := range p.IntervalProfiles {
		v := make([]float64, len(prof.Instrs))
		for b, c := range prof.Instrs {
			v[b] = float64(c) / float64(prof.Total)
		}
		vecs[i] = v
	}
	return kmeans.Project(vecs, p.Cfg.ProjectDim, p.Cfg.ProjectSeed)
}

// goldenPlans builds every plan of the corpus and digests, in order, each
// (k, seed) clustering that kmeans.Best tries, the result Best picks and
// the plan.
func goldenPlans(t *testing.T) []goldenRecord {
	t.Helper()
	var out []goldenRecord
	for _, gc := range goldenCases() {
		cfg := gc.cfg
		name := fmt.Sprintf("%s/ivl%d-maxk%d-seeds%d-iter%d", gc.prog, cfg.IntervalInstr, cfg.MaxK, cfg.Seeds, cfg.MaxIter)
		prog, err := bench.Build(gc.prog, bench.Reference, sim.ScaleTest)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := BuildPlan(prog, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		points := bbvPoints(plan)
		maxK := min(cfg.MaxK, len(points))
		bicSeed := cfg.ProjectSeed + 100 // the seed BuildPlan passes to Best
		bestSSE := map[int]float64{}
		bestDigest := map[int]string{}
		for _, k := range kmeans.KSchedule(maxK) {
			rec := goldenRecord{Name: fmt.Sprintf("%s/k%d", name, k)}
			bestSSE[k] = math.Inf(1)
			for s := 0; s < cfg.Seeds; s++ {
				r, err := kmeans.Cluster(points, k, cfg.MaxIter, xrand.New(bicSeed+uint64(k)*1e6+uint64(s)))
				if err != nil {
					t.Fatalf("%s: %v", rec.Name, err)
				}
				dg := resultDigest(r)
				rec.Digests = append(rec.Digests, dg)
				if r.SSE < bestSSE[k] {
					bestSSE[k], bestDigest[k] = r.SSE, dg
				}
			}
			out = append(out, rec)
		}
		best, err := kmeans.Best(points, maxK, cfg.Seeds, cfg.MaxIter, cfg.BICThreshold, bicSeed)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// The corpus pins Cluster only if the clusterings above are the
		// ones Best tried and the points are the ones BuildPlan clustered.
		if best.K != plan.K {
			t.Fatalf("%s: Best picks k=%d on the rebuilt points, the plan has k=%d", name, best.K, plan.K)
		}
		if dg := resultDigest(best); dg != bestDigest[best.K] {
			t.Fatalf("%s: Best's k=%d result %s is not the lowest-SSE restart %s", name, best.K, dg, bestDigest[best.K])
		}
		out = append(out,
			goldenRecord{Name: name + "/best", Digests: []string{resultDigest(best)}},
			goldenRecord{Name: name + "/plan", Digests: []string{planDigest(plan)}})
	}
	return out
}

// TestGoldenPlans pins SimPoint plan construction to a committed corpus of
// digests: every k-means restart Best tries, the clustering it picks and
// the resulting simulation points, for the reference programs at test
// scale. The corpus was generated by the plain Lloyd's loop that scanned
// every centroid for every point, so the pruned k-means is held to it
// bit for bit. Run with -update to regenerate after a change meant to
// move plans.
func TestGoldenPlans(t *testing.T) {
	got := goldenPlans(t)
	if *update {
		writeGoldenPlans(t, got)
		return
	}
	want := readGoldenPlans(t)
	if len(want) != len(got) {
		t.Fatalf("golden corpus has %d records, the run produced %d (regenerate with -update)", len(want), len(got))
	}
	for i := range got {
		if got[i].Name != want[i].Name || strings.Join(got[i].Digests, ",") != strings.Join(want[i].Digests, ",") {
			t.Errorf("record %d: got %+v, golden %+v", i, got[i], want[i])
		}
	}
}

func writeGoldenPlans(t *testing.T, recs []goldenRecord) {
	t.Helper()
	var sb strings.Builder
	for _, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		sb.Write(line)
		sb.WriteByte('\n')
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d records to %s", len(recs), goldenPath)
}

func readGoldenPlans(t *testing.T) []goldenRecord {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate with: go test ./internal/simpoint/ -run TestGoldenPlans -update)", err)
	}
	defer f.Close()
	var out []goldenRecord
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var r goldenRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("%s: %v", goldenPath, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
