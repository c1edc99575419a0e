// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index), plus the
// ablation benchmarks for the design choices DESIGN.md §5 calls out and
// throughput benchmarks of the real kernel implementations.
//
// The table/figure benchmarks run the same code paths as `cmd/repro`
// (Quick mode keeps `go test -bench=.` fast; run `cmd/repro -mode full`
// for paper-scale budgets) and report auxiliary metrics — evaluation
// counts, front sizes, hypervolumes — via b.ReportMetric, so the
// benchmark output doubles as a compact reproduction summary.
package autotune_test

import (
	"io"
	"testing"
	"time"

	"autotune"
	"autotune/internal/experiments"
	"autotune/internal/kernels"
	"autotune/internal/machine"
	"autotune/internal/objective"
	"autotune/internal/optimizer"
	"autotune/internal/pareto"
	"autotune/internal/perfmodel"
	"autotune/internal/skeleton"
)

// --- Table and figure benchmarks -----------------------------------

// BenchmarkFig1SpeedupEfficiency regenerates Fig. 1 (mm
// speedup/efficiency trade-off on Westmere).
func BenchmarkFig1SpeedupEfficiency(b *testing.B) {
	mm, _ := kernels.ByName("mm")
	m := machine.Westmere()
	var last *experiments.Fig1Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1(mm, m, experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.Speedup[len(last.Speedup)-1], "speedup@40")
	b.ReportMetric(last.Eff[len(last.Eff)-1], "efficiency@40")
}

// BenchmarkFig2TileHeatmap regenerates one Fig. 2 heat map (tile-size
// landscape at 40 threads).
func BenchmarkFig2TileHeatmap(b *testing.B) {
	mm, _ := kernels.ByName("mm")
	m := machine.Westmere()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2(mm, m, 40, 9, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2CrossThreadLoss regenerates Table II (per-thread-count
// optima and the cross-thread loss matrix) for mm on Westmere.
func BenchmarkTable2CrossThreadLoss(b *testing.B) {
	mm, _ := kernels.ByName("mm")
	m := machine.Westmere()
	var last *experiments.Table2Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table2(mm, m, experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	maxLoss := 0.0
	for i := range last.Loss {
		for j := range last.Loss[i] {
			if last.Loss[i][j] > maxLoss {
				maxLoss = last.Loss[i][j]
			}
		}
	}
	b.ReportMetric(100*maxLoss, "maxCrossLoss%")
}

// BenchmarkTable3ParetoPoints regenerates Table III (speedup,
// efficiency, relative time/resources of the per-thread-count optima).
func BenchmarkTable3ParetoPoints(b *testing.B) {
	mm, _ := kernels.ByName("mm")
	m := machine.Barcelona()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(mm, m, experiments.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5KernelLoss regenerates Table V (thread-specific tuning
// impact across all five kernels) on Barcelona.
func BenchmarkTable5KernelLoss(b *testing.B) {
	m := machine.Barcelona()
	var last *experiments.Table5Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table5(m, experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	for _, row := range last.Rows {
		if row.Kernel == "n-body" {
			b.ReportMetric(100*row.OneTMax, "nbody1tmax%")
		}
	}
}

// BenchmarkTable6OptimizerComparison regenerates one Table VI row
// (brute force vs random vs RS-GDE3 for mm on Westmere).
func BenchmarkTable6OptimizerComparison(b *testing.B) {
	mm, _ := kernels.ByName("mm")
	m := machine.Westmere()
	var last *experiments.Table6Row
	for i := 0; i < b.N; i++ {
		row, _, err := experiments.Table6Kernel(mm, m, experiments.Quick, 2)
		if err != nil {
			b.Fatal(err)
		}
		last = row
	}
	b.ReportMetric(last.RSGDE3.E, "rsgde3-E")
	b.ReportMetric(last.RSGDE3.V, "rsgde3-V")
	b.ReportMetric(last.BruteForce.E, "bf-E")
}

// BenchmarkFig8Sweep regenerates the Fig. 8 point cloud (time vs
// resources of the whole sweep).
func BenchmarkFig8Sweep(b *testing.B) {
	mm, _ := kernels.ByName("mm")
	m := machine.Westmere()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(mm, m, experiments.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9Fronts regenerates Fig. 9 (the three strategies'
// Pareto fronts).
func BenchmarkFig9Fronts(b *testing.B) {
	mm, _ := kernels.ByName("mm")
	m := machine.Barcelona()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Table6Kernel(mm, m, experiments.Quick, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunAllQuick runs the entire reproduction end to end.
func BenchmarkRunAllQuick(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.RunAll(io.Discard, experiments.Quick, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks (DESIGN.md §5) ----------------------------

func tuneSpaceFor(b *testing.B, kernel string, m *machine.Machine) (skeleton.Space, func() *objective.Sim) {
	b.Helper()
	k, err := kernels.ByName(kernel)
	if err != nil {
		b.Fatal(err)
	}
	space := skeleton.Space{Params: []skeleton.Param{
		{Name: "t1", Kind: skeleton.TileSize, Min: 1, Max: k.DefaultN / 2},
		{Name: "t2", Kind: skeleton.TileSize, Min: 1, Max: k.DefaultN / 2},
		{Name: "t3", Kind: skeleton.TileSize, Min: 1, Max: k.DefaultN / 2},
		{Name: "threads", Kind: skeleton.ThreadCount, Min: 1, Max: int64(m.Cores())},
	}}
	newEval := func() *objective.Sim {
		s, err := objective.NewSim(objective.SimConfig{Machine: m, Kernel: k, NoiseAmp: 0.01})
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	return space, newEval
}

func frontHV(b *testing.B, front []pareto.Point) float64 {
	b.Helper()
	var objs [][]float64
	for _, p := range front {
		objs = append(objs, p.Objectives)
	}
	ideal, nadir, err := pareto.IdealNadir(objs)
	if err != nil {
		return 0
	}
	for i := range ideal {
		if nadir[i] <= ideal[i] {
			nadir[i] = ideal[i] + 1e-12
		}
	}
	hv, err := pareto.NormalizedHypervolume(objs, ideal, nadir)
	if err != nil {
		return 0
	}
	return hv
}

// BenchmarkAblationRoughSet compares RS-GDE3 against plain GDE3
// (rough-set reduction disabled): evaluations to convergence.
func BenchmarkAblationRoughSet(b *testing.B) {
	m := machine.Westmere()
	space, newEval := tuneSpaceFor(b, "mm", m)
	for _, disable := range []bool{false, true} {
		name := "rs-gde3"
		if disable {
			name = "plain-gde3"
		}
		b.Run(name, func(b *testing.B) {
			var evals, size float64
			for i := 0; i < b.N; i++ {
				res, err := optimizer.RSGDE3(space, newEval(), optimizer.Options{
					Seed: int64(i), DisableRoughSet: disable,
				})
				if err != nil {
					b.Fatal(err)
				}
				evals += float64(res.Evaluations)
				size += float64(len(res.Front))
			}
			b.ReportMetric(evals/float64(b.N), "evals")
			b.ReportMetric(size/float64(b.N), "front")
		})
	}
}

// BenchmarkAblationPopulationSize sweeps the population size.
func BenchmarkAblationPopulationSize(b *testing.B) {
	m := machine.Westmere()
	space, newEval := tuneSpaceFor(b, "mm", m)
	for _, pop := range []int{10, 30, 60} {
		b.Run(map[int]string{10: "pop10", 30: "pop30", 60: "pop60"}[pop], func(b *testing.B) {
			var hv float64
			for i := 0; i < b.N; i++ {
				res, err := optimizer.RSGDE3(space, newEval(), optimizer.Options{
					PopSize: pop, Seed: int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				hv += frontHV(b, res.Front)
			}
			b.ReportMetric(hv/float64(b.N), "selfHV")
		})
	}
}

// BenchmarkAblationStagnationWindow sweeps the stopping rule.
func BenchmarkAblationStagnationWindow(b *testing.B) {
	m := machine.Westmere()
	space, newEval := tuneSpaceFor(b, "mm", m)
	for _, window := range []int{1, 3, 5} {
		b.Run(map[int]string{1: "stop1", 3: "stop3", 5: "stop5"}[window], func(b *testing.B) {
			var evals float64
			for i := 0; i < b.N; i++ {
				res, err := optimizer.RSGDE3(space, newEval(), optimizer.Options{
					Stagnation: window, Seed: int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				evals += float64(res.Evaluations)
			}
			b.ReportMetric(evals/float64(b.N), "evals")
		})
	}
}

// BenchmarkAblationThreadDimension compares searching the thread count
// as a dimension (the paper's parallelism-aware multi-versioning)
// against tuning tiles for one fixed thread count — quantifying the
// headline "up to 70% improvement" claim via hypervolume.
func BenchmarkAblationThreadDimension(b *testing.B) {
	m := machine.Westmere()
	k, _ := kernels.ByName("mm")
	full, newEval := tuneSpaceFor(b, "mm", m)
	fixed := skeleton.Space{Params: append(append([]skeleton.Param{}, full.Params[:3]...),
		skeleton.Param{Name: "threads", Kind: skeleton.ThreadCount, Min: int64(m.Cores()), Max: int64(m.Cores())})}
	_ = k
	for _, mode := range []string{"thread-aware", "fixed-threads"} {
		space := full
		if mode == "fixed-threads" {
			space = fixed
		}
		b.Run(mode, func(b *testing.B) {
			var size float64
			for i := 0; i < b.N; i++ {
				res, err := optimizer.RSGDE3(space, newEval(), optimizer.Options{Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				size += float64(len(res.Front))
			}
			b.ReportMetric(size/float64(b.N), "front")
		})
	}
}

// BenchmarkAblationObjectiveCount compares 2-objective and 3-objective
// (energy) tuning cost.
func BenchmarkAblationObjectiveCount(b *testing.B) {
	for _, objs := range []int{2, 3} {
		name := map[int]string{2: "time+resources", 3: "time+resources+energy"}[objs]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := []autotune.Option{
					autotune.WithSeed(int64(i)),
					autotune.WithOptimizerOptions(autotune.OptimizerOptions{PopSize: 20, Seed: int64(i), MaxIterations: 20}),
				}
				if objs == 3 {
					opts = append(opts, autotune.WithEnergyObjective())
				}
				if _, err := autotune.Tune("mm", opts...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSingleVsMulti quantifies the paper's motivation:
// the multi-objective run covers the whole trade-off in one search,
// where single-objective tuning needs one run per weight vector.
func BenchmarkAblationSingleVsMulti(b *testing.B) {
	m := machine.Westmere()
	space, newEval := tuneSpaceFor(b, "mm", m)
	weights := [][]float64{{1, 0}, {0.5, 0.5}, {0, 1}}
	b.Run("single-objective-sweep", func(b *testing.B) {
		var evals, points float64
		for i := 0; i < b.N; i++ {
			for wi, w := range weights {
				res, err := optimizer.SingleObjectiveDE(space, newEval(), w,
					optimizer.Options{Seed: int64(i*10 + wi)})
				if err != nil {
					b.Fatal(err)
				}
				evals += float64(res.Evaluations)
				points += float64(len(res.Front))
			}
		}
		b.ReportMetric(evals/float64(b.N), "evals")
		b.ReportMetric(points/float64(b.N), "points")
	})
	b.Run("rs-gde3", func(b *testing.B) {
		var evals, points float64
		for i := 0; i < b.N; i++ {
			res, err := optimizer.RSGDE3(space, newEval(), optimizer.Options{Seed: int64(i)})
			if err != nil {
				b.Fatal(err)
			}
			evals += float64(res.Evaluations)
			points += float64(len(res.Front))
		}
		b.ReportMetric(evals/float64(b.N), "evals")
		b.ReportMetric(points/float64(b.N), "points")
	})
}

// BenchmarkAblationUnrollDimension compares tuning with and without
// the innermost-loop unroll factor as a search dimension.
func BenchmarkAblationUnrollDimension(b *testing.B) {
	for _, withUnroll := range []bool{false, true} {
		name := "tiles+threads"
		if withUnroll {
			name = "tiles+threads+unroll"
		}
		b.Run(name, func(b *testing.B) {
			var bestTime float64
			for i := 0; i < b.N; i++ {
				opts := []autotune.Option{
					autotune.WithSeed(int64(i)),
					autotune.WithOptimizerOptions(autotune.OptimizerOptions{PopSize: 20, Seed: int64(i), MaxIterations: 30}),
				}
				if withUnroll {
					opts = append(opts, autotune.WithUnrollDimension())
				}
				res, err := autotune.Tune("mm", opts...)
				if err != nil {
					b.Fatal(err)
				}
				bestTime += res.Unit.Versions[0].Meta.Objectives[0]
			}
			b.ReportMetric(bestTime/float64(b.N)*1e3, "bestTimeMs")
		})
	}
}

// BenchmarkAblationDispatch compares multi-versioned dispatch
// (specialized closures) against the parameterized single-body
// alternative of §IV.
func BenchmarkAblationDispatch(b *testing.B) {
	mm, _ := kernels.ByName("mm")
	res, err := autotune.Tune("mm",
		autotune.WithProblemSize(64),
		autotune.WithSeed(1),
		autotune.WithOptimizerOptions(autotune.OptimizerOptions{PopSize: 8, Seed: 1, MaxIterations: 6}),
	)
	if err != nil {
		b.Fatal(err)
	}
	param, err := autotune.ParameterizedFromUnit(res.Unit, func(tiles []int64, threads int) error {
		_, err := mm.Run(64, tiles, threads)
		return err
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("multiversion", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := res.Unit.Versions[0].Entry(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parameterized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := param.Invoke(0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Substrate benchmarks -------------------------------------------

// BenchmarkModelEvaluation measures the analytical model's evaluation
// throughput (the quantity that makes paper-scale sweeps feasible).
func BenchmarkModelEvaluation(b *testing.B) {
	mm, _ := kernels.ByName("mm")
	mo := perfmodel.New(machine.Westmere())
	tiles := []int64{64, 64, 64}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mo.Time(mm.Model, 1400, tiles, 10, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRealKernels measures the real tiled parallel kernel
// implementations at their bench problem sizes.
func BenchmarkRealKernels(b *testing.B) {
	for _, k := range kernels.All() {
		k := k
		b.Run(k.Name, func(b *testing.B) {
			tiles := make([]int64, k.TileDims)
			for i := range tiles {
				tiles[i] = 32
			}
			n := k.BenchN / 2
			for i := 0; i < b.N; i++ {
				if _, err := k.Run(n, tiles, 4); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRSGDE3EndToEnd measures one full tuning run through the
// public API.
func BenchmarkRSGDE3EndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := autotune.Tune("mm", autotune.WithSeed(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Island-model benchmarks ----------------------------------------

// slowCachingEval wraps the deterministic simulated evaluator with a
// fixed per-evaluation delay, emulating measured tuning where each
// candidate costs real execution time. Parallelism is ample so whole
// island batches can be in flight at once.
func slowCachingEval(b *testing.B, kernel string, m *machine.Machine, delay time.Duration) *objective.CachingEvaluator {
	b.Helper()
	k, err := kernels.ByName(kernel)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := objective.NewSim(objective.SimConfig{Machine: m, Kernel: k, NoiseAmp: 0.01})
	if err != nil {
		b.Fatal(err)
	}
	return objective.NewCachingEvaluator(sim.ObjectiveNames(), 256,
		func(cfg skeleton.Config) []float64 {
			time.Sleep(delay)
			return sim.EvaluateOne(cfg)
		})
}

// BenchmarkIslandSerialVsParallel compares the serial RS-GDE3 driver
// against the island-model driver on a slow (5ms/eval) evaluator at an
// equal generation budget: serial runs W× the generations of a
// W-island run, so the same number of population evaluations is spent
// while wall-clock exposes the parallel speedup. Hypervolume and E are
// reported alongside so search quality stays visible.
func BenchmarkIslandSerialVsParallel(b *testing.B) {
	m := machine.Westmere()
	space, _ := tuneSpaceFor(b, "mm", m)
	const delay = 5 * time.Millisecond
	const baseGens = 16
	for _, islands := range []int{1, 2, 4} {
		name := map[int]string{1: "serial", 2: "islands2", 4: "islands4"}[islands]
		b.Run(name, func(b *testing.B) {
			var evals, size, hv float64
			for i := 0; i < b.N; i++ {
				eval := slowCachingEval(b, "mm", m, delay)
				opt := optimizer.Options{
					PopSize:       24,
					MaxIterations: baseGens / islands,
					Stagnation:    baseGens + 1,
					Seed:          1,
				}
				var res *optimizer.Result
				var err error
				if islands > 1 {
					res, err = optimizer.RSGDE3Islands(space, eval, opt,
						optimizer.IslandOptions{Islands: islands, MigrationInterval: 2})
				} else {
					res, err = optimizer.RSGDE3(space, eval, opt)
				}
				if err != nil {
					b.Fatal(err)
				}
				evals += float64(res.Evaluations)
				size += float64(len(res.Front))
				hv += frontHV(b, res.Front)
			}
			b.ReportMetric(evals/float64(b.N), "evals")
			b.ReportMetric(size/float64(b.N), "front")
			b.ReportMetric(hv/float64(b.N), "selfHV")
		})
	}
}

// BenchmarkCachingEvaluatorDedup measures the shared evaluation
// cache's dedup throughput under concurrent batches — the hot path
// every island generation goes through.
func BenchmarkCachingEvaluatorDedup(b *testing.B) {
	eval := objective.NewCachingEvaluator([]string{"a", "b"}, 8,
		func(cfg skeleton.Config) []float64 {
			return []float64{float64(cfg[0]), float64(cfg[0] * 2)}
		})
	batch := make([]skeleton.Config, 64)
	for i := range batch {
		batch[i] = skeleton.Config{int64(i % 16), 1}
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			eval.Evaluate(batch)
		}
	})
}
