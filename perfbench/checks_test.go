package main

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"autotune/internal/server"
	"autotune/internal/skeleton"
	"autotune/internal/tunedb"
)

// Each check is given a deliberately wrong input and must fail; the
// matching right input must pass, so a check that rejects everything
// fails too.

func mmWestmere(t *testing.T) *problem {
	t.Helper()
	p, err := newProblems().get("mm", "Westmere")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// validPoint is a configuration inside the space with its fresh
// objectives.
func validPoint(t *testing.T, p *problem, threads int64) point {
	t.Helper()
	cfg := make([]int64, p.space.Dim())
	for i, prm := range p.space.Params {
		cfg[i] = (prm.Min + prm.Max) / 2
	}
	cfg[len(cfg)-1] = threads
	objs := p.freshEval([]skeleton.Config{cfg})[0]
	if objs == nil {
		t.Fatalf("config %v does not evaluate", cfg)
	}
	return point{cfg: cfg, objs: objs}
}

func TestDominatedPointFails(t *testing.T) {
	front := []point{{objs: []float64{1, 4}}, {objs: []float64{2, 3}}, {objs: []float64{3, 1}}}
	if err := checkNonDominated(front); err != nil {
		t.Fatalf("non-dominated front rejected: %v", err)
	}
	front = append(front, point{objs: []float64{2, 4}}) // dominated by {1,4} and {2,3}
	if err := checkNonDominated(front); err == nil {
		t.Fatal("a dominated point passed")
	}
	// Equal objective vectors do not dominate each other.
	if err := checkNonDominated([]point{{objs: []float64{1, 1}}, {objs: []float64{1, 1}}}); err != nil {
		t.Fatalf("duplicate points rejected: %v", err)
	}
}

func TestObjectiveOffByOneULPFails(t *testing.T) {
	p := mmWestmere(t)
	q := validPoint(t, p, 8)
	if err := checkObjectives([]point{q}, p.freshEval); err != nil {
		t.Fatalf("fresh objectives rejected: %v", err)
	}
	for i := range q.objs {
		bad := point{cfg: q.cfg, objs: append([]float64(nil), q.objs...)}
		bad.objs[i] = math.Nextafter(bad.objs[i], math.Inf(1))
		if err := checkObjectives([]point{bad}, p.freshEval); err == nil {
			t.Fatalf("objective %d one ulp off passed", i)
		}
	}
}

func TestOutOfBoundsConfigFails(t *testing.T) {
	p := mmWestmere(t)
	q := validPoint(t, p, 4)
	if err := checkBounds([]point{q}, p.space, p.mach.Cores()); err != nil {
		t.Fatalf("in-bounds config rejected: %v", err)
	}
	tooMany := point{cfg: append([]int64(nil), q.cfg...)}
	tooMany.cfg[len(tooMany.cfg)-1] = int64(p.mach.Cores()) + 1
	bigTile := point{cfg: append([]int64(nil), q.cfg...)}
	bigTile.cfg[0] = p.space.Params[0].Max + 1
	short := point{cfg: q.cfg[:len(q.cfg)-1]}
	for name, bad := range map[string]point{"threads": tooMany, "tile": bigTile, "length": short} {
		if err := checkBounds([]point{bad}, p.space, p.mach.Cores()); err == nil {
			t.Errorf("out-of-bounds config (%s) %v passed", name, bad.cfg)
		}
	}
}

// servedRound is one round holding a single warm_start:false job whose
// served front is the given bytes.
func servedRound(front []byte, dedupHits int64) serveRoundResult {
	off := false
	req := server.JobRequest{Tenant: "c0", Kernel: "mm", Machine: "Westmere", Method: "rs-gde3",
		Seed: 7, Noise: noise, WarmStart: &off}
	return serveRoundResult{
		jobs: []served{{spec: jobSpec{req: req, resubmits: -1}, id: "j000000",
			status: server.JobStatus{State: server.StateDone}, front: front}},
		dedupHits: dedupHits,
	}
}

func TestServedFrontDifferingFromLibraryFails(t *testing.T) {
	lib, err := libraryFrontJSON(cell{"mm", "Westmere", 7})
	if err != nil {
		t.Fatal(err)
	}
	r := &run{}
	checkServed(r, &result{}, []serveRoundResult{servedRound(lib, 0)}, newProblems(), nil)
	if len(r.problems) != 0 {
		t.Fatalf("the library's own front was rejected: %v", r.problems)
	}
	// Same points, one less space of indentation: the front checks
	// pass, only the byte comparison can catch it.
	altered := bytes.Replace(lib, []byte("\n  "), []byte("\n "), 1)
	r = &run{}
	checkServed(r, &result{}, []serveRoundResult{servedRound(altered, 0)}, newProblems(), nil)
	if len(r.problems) != 1 || !strings.Contains(r.problems[0], "differs from the library") {
		t.Fatalf("a served front differing from the library's gave %v", r.problems)
	}
	if err := checkSameBytes("x", lib, altered); err == nil {
		t.Fatal("checkSameBytes accepted different fronts")
	}
}

func TestDedupCountMismatchFails(t *testing.T) {
	lib, err := libraryFrontJSON(cell{"mm", "Westmere", 7})
	if err != nil {
		t.Fatal(err)
	}
	r := &run{}
	checkServed(r, &result{}, []serveRoundResult{servedRound(lib, 1)}, newProblems(), nil)
	if len(r.problems) != 1 || !strings.Contains(r.problems[0], "dedup hits") {
		t.Fatalf("/metrics counting a dedup hit nobody made gave %v", r.problems)
	}
}

func TestStoreDisagreeingWithShadowFails(t *testing.T) {
	r := &run{seed: 5, tmp: t.TempDir()}
	b := newStoreBench(r, nil)
	b.dir = filepath.Join(r.tmp, "db")
	b.sh = newShadow(5)
	db, err := tunedb.Open(b.dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	sh := b.sh
	for p := 0; p < 3; p++ {
		for i := 0; i < 4; i++ {
			if err := db.PutEval(sh.keys[p], configAt(p, i), sh.objsAt(p, i)); err != nil {
				t.Fatal(err)
			}
		}
		sh.n[p] = 4
	}
	scan := func(p int) []scanned {
		var got []scanned
		if err := db.ScanEvals(sh.ks[p]+"|", func(_ string, cfg skeleton.Config, objs []float64) bool {
			got = append(got, scanned{cfg, objs})
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	full := func() error {
		n, sum, ordered, prev := 0, uint64(0), true, ""
		if err := db.ScanEvals("", func(ks string, cfg skeleton.Config, objs []float64) bool {
			ordered = ordered && ks >= prev
			prev = ks
			n++
			sum += recordHash(ks, cfg, objs)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return sh.checkFull(n, sum, ordered)
	}
	cfg := configAt(1, 2)
	objs, ok := db.GetEval(sh.keys[1], cfg)
	if err := sh.checkGet(1, cfg, objs, ok); err != nil {
		t.Fatalf("agreeing get rejected: %v", err)
	}
	if err := sh.checkPrefix(1, scan(1)); err != nil {
		t.Fatalf("agreeing prefix scan rejected: %v", err)
	}
	if err := full(); err != nil {
		t.Fatalf("agreeing full scan rejected: %v", err)
	}

	// A write the model did not see: reads and scans must disagree.
	off := append([]float64(nil), objs...)
	off[1] = math.Nextafter(off[1], math.Inf(1))
	if err := db.PutEval(sh.keys[1], cfg, off); err != nil {
		t.Fatal(err)
	}
	objs, ok = db.GetEval(sh.keys[1], cfg)
	if err := sh.checkGet(1, cfg, objs, ok); err == nil {
		t.Error("a get disagreeing with the model passed")
	}
	if err := sh.checkPrefix(1, scan(1)); err == nil {
		t.Error("a prefix scan disagreeing with the model passed")
	}
	if err := full(); err == nil {
		t.Error("a full scan disagreeing with the model passed")
	}
	if err := sh.checkGet(2, configAt(2, 4), sh.objsAt(2, 4), true); err == nil {
		t.Error("a get finding a record the model lacks passed")
	}
	if err := sh.checkPrefix(0, scan(0)[1:]); err == nil {
		t.Error("a prefix scan missing a record passed")
	}

	// Fronts: absent where none was written, and equal to the last one
	// written where one was.
	if err := sh.checkFront(0, tunedb.FrontRecord{Key: sh.keys[0]}, true); err == nil {
		t.Error("a front read finding a front nobody wrote passed")
	}
	sh.fronts[0] = tunedb.FrontRecord{Key: sh.keys[0], ObjectiveNames: []string{"time", "resources"}}
	if err := sh.checkFront(0, tunedb.FrontRecord{Key: sh.keys[0], ObjectiveNames: []string{"time"}}, true); err == nil {
		t.Error("a front read differing from the one written passed")
	}
}

func TestConfigAtIsInvertible(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range []int{0, 1, 999} {
		for _, i := range []int{0, 1, 511, 512, 4000, 512*512 - 1} {
			cfg := configAt(p, i)
			if got, ok := indexOf(p, cfg); !ok || got != i {
				t.Fatalf("indexOf(%d, configAt(%d, %d)) = %d, %v", p, p, i, got, ok)
			}
			k := fmt.Sprint(p, cfg)
			if seen[k] {
				t.Fatalf("configAt(%d, %d) repeats", p, i)
			}
			seen[k] = true
		}
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	ms := time.Millisecond
	parent := span{start: 0, end: 10 * ms}
	kids := []span{{start: 1 * ms, end: 3 * ms}, {start: 2 * ms, end: 5 * ms}, {start: 7 * ms, end: 12 * ms}, {start: 4 * ms, end: -1}}
	if got := covered(parent, kids); got != 7*ms {
		t.Fatalf("covered = %v, want 7ms", got)
	}
}
