package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"autotune/internal/analyzer"
	"autotune/internal/kernels"
	"autotune/internal/machine"
	"autotune/internal/objective"
	"autotune/internal/pareto"
	"autotune/internal/skeleton"
)

// noise is the simulator's measurement-noise amplitude in every
// search the benchmark runs (the CLI's default).
const noise = 0.01

// point is one front point as the benchmark checks it.
type point struct {
	cfg  []int64
	objs []float64
}

// dominates is the benchmark's own Pareto test (minimization): a is no
// worse than b everywhere and better somewhere.
func dominates(a, b []float64) bool {
	better := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			better = true
		}
	}
	return better
}

// checkNonDominated fails when any front point dominates another.
func checkNonDominated(front []point) error {
	for i := range front {
		for j := range front {
			if i != j && dominates(front[i].objs, front[j].objs) {
				return fmt.Errorf("point %v %v dominates %v %v", front[i].cfg, front[i].objs, front[j].cfg, front[j].objs)
			}
		}
	}
	return nil
}

// checkBounds fails when a configuration lies outside the space or
// asks for more threads than the machine has cores. The thread count
// is the last parameter of the kernel skeletons.
func checkBounds(front []point, space skeleton.Space, cores int) error {
	for _, p := range front {
		if len(p.cfg) != space.Dim() {
			return fmt.Errorf("config %v has %d values, space has %d", p.cfg, len(p.cfg), space.Dim())
		}
		for i, v := range p.cfg {
			if v < space.Params[i].Min || v > space.Params[i].Max {
				return fmt.Errorf("config %v: %s=%d outside [%d,%d]", p.cfg, space.Params[i].Name, v, space.Params[i].Min, space.Params[i].Max)
			}
		}
		if threads := p.cfg[len(p.cfg)-1]; threads < 1 || threads > int64(cores) {
			return fmt.Errorf("config %v: %d threads on a %d-core machine", p.cfg, threads, cores)
		}
	}
	return nil
}

// checkObjectives fails unless every point's objectives equal, bit
// for bit, what eval computes for its configuration.
func checkObjectives(front []point, eval func([]skeleton.Config) [][]float64) error {
	cfgs := make([]skeleton.Config, len(front))
	for i, p := range front {
		cfgs[i] = skeleton.Config(p.cfg)
	}
	fresh := eval(cfgs)
	for i, p := range front {
		if len(fresh[i]) != len(p.objs) {
			return fmt.Errorf("config %v: front has %d objectives, fresh evaluation %d", p.cfg, len(p.objs), len(fresh[i]))
		}
		for j := range p.objs {
			if math.Float64bits(p.objs[j]) != math.Float64bits(fresh[i][j]) {
				return fmt.Errorf("config %v: objective %d is %v, fresh evaluation gives %v", p.cfg, j, p.objs[j], fresh[i][j])
			}
		}
	}
	return nil
}

// checkSameBytes fails when a served front differs from the library's.
func checkSameBytes(what string, got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s: served front (%d bytes) differs from the library front (%d bytes)", what, len(got), len(want))
	}
	return nil
}

// parseFront decodes the byte-stable front JSON the library and the
// service both render.
func parseFront(data []byte) ([]point, error) {
	var recs []struct {
		Config     []int64 `json:"config"`
		Objectives []struct {
			Value float64 `json:"value"`
		} `json:"objectives"`
	}
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("decoding front: %w", err)
	}
	out := make([]point, len(recs))
	for i, r := range recs {
		out[i].cfg = r.Config
		for _, o := range r.Objectives {
			out[i].objs = append(out[i].objs, o.Value)
		}
	}
	return out, nil
}

// problem is what the checks know about one kernel × machine cell,
// derived apart from any search.
type problem struct {
	kernel *kernels.Kernel
	mach   *machine.Machine
	space  skeleton.Space
	ref    []float64 // fixed hypervolume reference point
}

// problems caches the cells the checks have met.
type problems struct {
	cells map[string]*problem
}

func newProblems() *problems { return &problems{cells: map[string]*problem{}} }

func (ps *problems) get(kernel, mach string) (*problem, error) {
	if p, ok := ps.cells[kernel+"@"+mach]; ok {
		return p, nil
	}
	k, err := kernels.ByName(kernel)
	if err != nil {
		return nil, err
	}
	m, err := machine.ByName(mach)
	if err != nil {
		return nil, err
	}
	regions, err := analyzer.Analyze(k.IR(k.DefaultN), analyzer.Options{MaxThreads: m.Cores()})
	if err != nil {
		return nil, err
	}
	p := &problem{kernel: k, mach: m, space: regions[0].Skeleton.Space}
	if p.ref, err = p.reference(); err != nil {
		return nil, err
	}
	ps.cells[kernel+"@"+mach] = p
	return p, nil
}

// freshEval evaluates configurations on a new simulator that no search
// has touched.
func (p *problem) freshEval(cfgs []skeleton.Config) [][]float64 {
	sim, err := objective.NewSim(objective.SimConfig{Machine: p.mach, Kernel: p.kernel, NoiseAmp: noise})
	if err != nil {
		out := make([][]float64, len(cfgs))
		return out // nil objectives fail the comparison
	}
	return sim.Evaluate(cfgs)
}

// reference is 1.1 × the componentwise worst objective over 64
// configurations drawn with a fixed seed: a per-cell box that does not
// depend on any search or on the workload seed.
func (p *problem) reference() ([]float64, error) {
	rng := rand.New(rand.NewSource(1))
	cfgs := make([]skeleton.Config, 64)
	for i := range cfgs {
		cfg := make(skeleton.Config, p.space.Dim())
		for j, prm := range p.space.Params {
			cfg[j] = prm.Min + rng.Int63n(prm.Max-prm.Min+1)
		}
		cfgs[i] = cfg
	}
	var ref []float64
	for _, o := range p.freshEval(cfgs) {
		if o == nil {
			continue
		}
		if ref == nil {
			ref = make([]float64, len(o))
		}
		for i, v := range o {
			ref[i] = math.Max(ref[i], v*1.1)
		}
	}
	if ref == nil {
		return nil, fmt.Errorf("no valid configuration among the reference sample of %s on %s", p.kernel.Name, p.mach.Name)
	}
	return ref, nil
}

// hv is the front's hypervolume against the cell's reference point as
// a share of the reference box.
func (p *problem) hv(front []point) float64 {
	objs := make([][]float64, len(front))
	for i, q := range front {
		objs[i] = q.objs
	}
	v, err := pareto.Hypervolume(objs, p.ref)
	if err != nil {
		return 0
	}
	box := 1.0
	for _, r := range p.ref {
		box *= r
	}
	return v / box
}

// checkFront runs every front check against the cell and reports the
// first failure.
func (p *problem) checkFront(front []point) error {
	if len(front) == 0 {
		return fmt.Errorf("empty front")
	}
	if err := checkNonDominated(front); err != nil {
		return err
	}
	if err := checkBounds(front, p.space, p.mach.Cores()); err != nil {
		return err
	}
	return checkObjectives(front, p.freshEval)
}
