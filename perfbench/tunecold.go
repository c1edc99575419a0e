package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"autotune"
)

// machines are the paper's two simulated targets.
var machines = []string{"Westmere", "Barcelona"}

// seedsPerCell is how many searches of each kernel × machine cell one
// tune-cold round runs.
const seedsPerCell = 4

// cell is one search: kernel × machine × optimizer seed.
type cell struct {
	kernel, machine string
	seed            int64
}

// tuneRound draws the next round of searches: every built-in kernel ×
// both machines × seedsPerCell optimizer seeds from rng.
func tuneRound(rng *rand.Rand) []cell {
	var out []cell
	for _, k := range autotune.Kernels() {
		for _, m := range machines {
			for i := 0; i < seedsPerCell; i++ {
				out = append(out, cell{k, m, 1 + rng.Int63n(1<<31)})
			}
		}
	}
	return out
}

// tuneOptions are the options of one library search: RS-GDE3 (the
// default method), 1% simulator noise, no database.
func (c cell) tuneOptions() []autotune.Option {
	return []autotune.Option{autotune.WithMachine(c.machine), autotune.WithSeed(c.seed), autotune.WithNoise(noise)}
}

// searched is what the benchmark keeps of one finished search.
type searched struct {
	cell
	front []point
	evals int
}

// tuneOnce runs one library search and keeps its front.
func tuneOnce(c cell) (searched, error) {
	res, err := autotune.Tune(c.kernel, c.tuneOptions()...)
	if err != nil {
		return searched{}, err
	}
	s := searched{cell: c, evals: res.Evaluations, front: make([]point, len(res.Front))}
	for i, p := range res.Front {
		cfg, ok := p.Payload.(autotune.Config)
		if !ok {
			return searched{}, fmt.Errorf("%s/%s seed %d: front point without a configuration", c.kernel, c.machine, c.seed)
		}
		s.front[i] = point{cfg: append([]int64(nil), cfg...), objs: append([]float64(nil), p.Objectives...)}
	}
	return s, nil
}

// tuneSetup is the warm-up the timed phase starts after: one seed-1
// search of every kernel × machine cell. It is repeated and the median
// reported, so first-use work moved into set-up shows.
func tuneSetup() ([]time.Duration, error) {
	var setups []time.Duration
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		for _, k := range autotune.Kernels() {
			for _, m := range machines {
				if _, err := tuneOnce(cell{k, m, 1}); err != nil {
					return nil, err
				}
			}
		}
		setups = append(setups, time.Since(t0))
	}
	return setups, nil
}

// tuneCold runs library searches one at a time until the time is up,
// in whole rounds, then checks every front.
func tuneCold(r *run) (*result, error) {
	setups, err := tuneSetup()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(r.seed))
	res := &result{}
	var done []searched
	var latency []time.Duration
	var rates []float64 // evaluations per second, one per round
	evals := 0
	allocCount := newAllocCounter()
	a0 := allocCount.read()
	for end := r.deadline(time.Now()); time.Now().Before(end); {
		roundStart, e0 := time.Now(), evals
		for _, c := range tuneRound(rng) {
			res.attempted++
			t0 := time.Now()
			s, err := tuneOnce(c)
			latency = append(latency, time.Since(t0))
			if err != nil {
				res.failed++
				r.fail("%s/%s seed %d: %v", c.kernel, c.machine, c.seed, err)
				continue
			}
			evals += s.evals
			done = append(done, s)
		}
		rates = append(rates, float64(evals-e0)/time.Since(roundStart).Seconds())
	}
	allocs := allocCount.read() - a0

	addCommon(res, setups)
	res.add("ops_per_s", median(rates), "1/s")
	res.add("allocs_per_op", float64(allocs)/float64(evals), "count")
	lat := durations(latency)
	res.add("latency_ms_p50", quantile(lat, 0.5), "ms")
	res.add("latency_ms_p90", quantile(lat, 0.9), "ms")

	ps := newProblems()
	for _, s := range done {
		p, err := ps.get(s.kernel, s.machine)
		if err != nil {
			return nil, err
		}
		if err := p.checkFront(s.front); err != nil {
			r.fail("%s/%s seed %d: %v", s.kernel, s.machine, s.seed, err)
		}
	}
	return res, nil
}

// tuneLayerRun is the traced tune path: the library pipeline rebuilt
// from its layers' public functions, with spans around each layer,
// for the given seconds (at least one whole round). The first round's
// fronts must equal autotune.Tune's byte for byte.
func tuneLayerRun(r *run, res *result, seconds float64) error {
	rng := rand.New(rand.NewSource(r.seed))
	ps := newProblems()
	l := newTuneLayers(r.tr)
	var hv, rates []float64
	searches, evals := 0, 0
	end := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for round := 0; round == 0 || time.Now().Before(end); round++ {
		var busy time.Duration
		e0 := evals
		for _, c := range tuneRound(rng) {
			t0 := time.Now()
			s, text, err := l.tune(c)
			busy += time.Since(t0)
			if err != nil {
				return fmt.Errorf("traced %s/%s seed %d: %w", c.kernel, c.machine, c.seed, err)
			}
			searches++
			evals += s.evals
			p, err := ps.get(c.kernel, c.machine)
			if err != nil {
				return err
			}
			if err := p.checkFront(s.front); err != nil {
				r.fail("traced %s/%s seed %d: %v", c.kernel, c.machine, c.seed, err)
			}
			hv = append(hv, p.hv(s.front))
			if round == 0 {
				want, err := libraryFrontJSON(c)
				if err != nil {
					return err
				}
				if !bytes.Equal(text, want) {
					r.fail("traced %s/%s seed %d: front differs from autotune.Tune's", c.kernel, c.machine, c.seed)
				}
			}
		}
		rates = append(rates, float64(evals-e0)/busy.Seconds())
	}
	res.attempted += searches
	l.report(res, searches)
	res.add("optimizer.evals_per_search", float64(evals)/float64(searches), "count")
	res.add("optimizer.front_hv", mean(hv), "ratio")
	res.add("trace.tune_evals_per_s", median(rates), "1/s")
	return nil
}
