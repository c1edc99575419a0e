package main

// The traced runs' seams into the program's internal layers, kept in
// this one file: the tune pipeline rebuilt from kernels, analyzer,
// objective, optimizer and the multi-versioning backend, and a
// counting filesystem under the store. The untraced runs use only the
// root autotune package, the service's HTTP API and the tuning
// database API.

import (
	"bytes"
	"context"
	"os"
	"strings"
	"sync"
	"time"

	"autotune"
	"autotune/internal/analyzer"
	"autotune/internal/chaos"
	"autotune/internal/driver"
	"autotune/internal/export"
	"autotune/internal/kernels"
	"autotune/internal/machine"
	"autotune/internal/objective"
	"autotune/internal/optimizer"
	"autotune/internal/skeleton"
)

// tuneLayers accumulates the tune path's per-layer counters across
// searches.
type tuneLayers struct {
	tr     *tracer
	allocs *allocCounter

	prepare time.Duration
	emit    time.Duration

	// Model evaluations, timed inside the evaluator's middleware; they
	// run on the evaluator's goroutines, hence the lock.
	mu        sync.Mutex
	modelTime time.Duration
	modelN    int
	batch     []span // model evaluations of the current batch

	configs      int           // configurations requested from Evaluate
	evalOverhead time.Duration // Evaluate time not covered by a model evaluation
	evalAllocs   uint64

	generations int
	genAllocs   uint64 // allocations in generations outside Evaluate
}

func newTuneLayers(tr *tracer) *tuneLayers {
	return &tuneLayers{tr: tr, allocs: newAllocCounter()}
}

// search is the per-search state the evaluator and the generation
// marker share.
type search struct {
	l       *tuneLayers
	trace   int
	run     int    // the optimizer.run span
	gen     int    // open span inside it
	genName string // its name
	genA0   uint64
	inEval  uint64 // allocations inside Evaluate during the open generation
}

// tracedEval is the simulator with a span around every Evaluate batch.
type tracedEval struct {
	*objective.Sim
	s *search
}

func (e *tracedEval) Evaluate(cfgs []skeleton.Config) [][]float64 {
	l := e.s.l
	id := l.tr.begin("objective.evaluate", e.s.trace, e.s.gen)
	l.mu.Lock()
	l.batch = l.batch[:0]
	l.mu.Unlock()
	a0 := l.allocs.read()
	t0 := time.Now()
	out := e.Sim.Evaluate(cfgs)
	d := time.Since(t0)
	a := l.allocs.read() - a0
	l.tr.end(id)

	l.mu.Lock()
	cov := covered(span{start: t0.Sub(l.tr.t0), end: t0.Add(d).Sub(l.tr.t0)}, l.batch)
	l.mu.Unlock()
	l.configs += len(cfgs)
	l.evalOverhead += d - cov
	l.evalAllocs += a
	e.s.inEval += a
	return out
}

// Save marks a generation boundary: the optimizer calls it after the
// initial population and after every generation. It saves nothing.
func (s *search) Save(*optimizer.Snapshot) error {
	s.open("optimizer.generation")
	return nil
}

// open closes the current optimizer span, counting it if it was a
// generation, and opens the next one.
func (s *search) open(name string) {
	l := s.l
	if s.gen != 0 {
		l.tr.end(s.gen)
		if s.genName == "optimizer.generation" {
			l.generations++
			l.genAllocs += l.allocs.read() - s.genA0 - s.inEval
		}
	}
	s.gen, s.genName = 0, name
	if name != "" {
		s.gen = l.tr.begin(name, s.trace, s.run)
	}
	s.genA0, s.inEval = l.allocs.read(), 0
}

// tune runs one search through the traced pipeline and returns it
// with its front rendered as the library renders it.
func (l *tuneLayers) tune(c cell) (searched, []byte, error) {
	s := &search{l: l, trace: l.tr.newTrace()}
	root := l.tr.begin("tune.search", s.trace, 0)
	defer l.tr.end(root)

	t0 := time.Now()
	id := l.tr.begin("kernels.prepare", s.trace, root)
	k, err := kernels.ByName(c.kernel)
	if err != nil {
		return searched{}, nil, err
	}
	m, err := machine.ByName(c.machine)
	if err != nil {
		return searched{}, nil, err
	}
	n := k.DefaultN
	prog := k.IR(n)
	regions, err := analyzer.Analyze(prog, analyzer.Options{MaxThreads: m.Cores()})
	if err != nil {
		return searched{}, nil, err
	}
	region := regions[0]
	l.tr.end(id)
	l.prepare += time.Since(t0)

	sim, err := objective.NewSim(objective.SimConfig{Machine: m, Kernel: k, N: n, NoiseAmp: noise})
	if err != nil {
		return searched{}, nil, err
	}
	sim.WrapEvalFunc(func(next objective.CtxEvalFunc) objective.CtxEvalFunc {
		return func(ctx context.Context, cfg skeleton.Config) ([]float64, error) {
			a := time.Now()
			objs, err := next(ctx, cfg)
			b := time.Now()
			l.mu.Lock()
			l.modelTime += b.Sub(a)
			l.modelN++
			l.batch = append(l.batch, span{start: a.Sub(l.tr.t0), end: b.Sub(l.tr.t0)})
			l.mu.Unlock()
			return objs, err
		}
	})
	eval := &tracedEval{Sim: sim, s: s}
	opt := optimizer.Options{Seed: c.seed}
	s.run = l.tr.begin("optimizer.run", s.trace, root)
	s.open("optimizer.init")
	res, err := optimizer.RSGDE3Controlled(region.Skeleton.Space, eval, opt, optimizer.Control{Checkpointer: s})
	// The span opened by the last Save is the result assembly, not a
	// generation.
	l.tr.rename(s.gen, "optimizer.finish")
	s.genName = "optimizer.finish"
	s.open("")
	l.tr.end(s.run)
	if err != nil {
		return searched{}, nil, err
	}

	t0 = time.Now()
	id = l.tr.begin("multiversion.emit", s.trace, root)
	if _, err := driver.EmitUnit(k, prog, region, res, sim.ObjectiveNames(), n); err != nil {
		return searched{}, nil, err
	}
	l.tr.end(id)
	l.emit += time.Since(t0)

	out := searched{cell: c, evals: res.Evaluations, front: make([]point, len(res.Front))}
	for i, p := range res.Front {
		cfg := p.Payload.(skeleton.Config)
		out.front[i] = point{cfg: append([]int64(nil), cfg...), objs: append([]float64(nil), p.Objectives...)}
	}
	var buf bytes.Buffer
	if err := export.FrontJSON(&buf, res.Front, sim.ObjectiveNames()); err != nil {
		return searched{}, nil, err
	}
	return out, buf.Bytes(), nil
}

// libraryFrontJSON renders autotune.Tune's front for the cell.
func libraryFrontJSON(c cell) ([]byte, error) {
	res, err := autotune.Tune(c.kernel, c.tuneOptions()...)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = export.FrontJSON(&buf, res.Front, res.Unit.ObjectiveNames)
	return buf.Bytes(), err
}

// report adds the tune path's per-layer metrics.
func (l *tuneLayers) report(res *result, searches int) {
	self, count := l.tr.selfTimes()
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	res.add("kernels.prepare_us", us(l.prepare)/float64(searches), "us")
	res.add("perfmodel.eval_ns", float64(l.modelTime.Nanoseconds())/float64(l.modelN), "ns")
	res.add("perfmodel.evals_per_search", float64(l.modelN)/float64(searches), "count")
	res.add("objective.overhead_ns_per_config", float64(l.evalOverhead.Nanoseconds())/float64(l.configs), "ns")
	res.add("objective.allocs_per_config", float64(l.evalAllocs)/float64(l.configs), "count")
	res.add("objective.cache_hit_ratio", 1-float64(l.modelN)/float64(l.configs), "ratio")
	res.add("optimizer.gen_self_us", us(self["optimizer.generation"])/float64(count["optimizer.generation"]), "us")
	res.add("optimizer.allocs_per_gen", float64(l.genAllocs)/float64(l.generations), "count")
	res.add("optimizer.generations_per_search", float64(l.generations)/float64(searches), "count")
	res.add("multiversion.emit_us", us(l.emit)/float64(searches), "us")
}

// countingFS is the real filesystem with counters: bytes written and
// read, reads, fsyncs with their latencies, and segment files created
// by compaction (a merged segment spans several sequence numbers).
type countingFS struct {
	chaos.OS

	mu          sync.Mutex
	writeBytes  int64
	reads       int64
	readBytes   int64
	readTime    time.Duration
	fsyncs      int64
	fsyncTimes  []time.Duration
	compactions int64
}

// dbFS is the filesystem to open a database over: c, or the real one
// when c is nil.
func dbFS(c *countingFS) chaos.FS {
	if c == nil {
		return nil
	}
	return c
}

// fsCounts is a snapshot of the counters.
type fsCounts struct {
	writeBytes, reads, readBytes, fsyncs, compactions int64
	readTime                                          time.Duration
}

func (c *countingFS) counts() fsCounts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fsCounts{c.writeBytes, c.reads, c.readBytes, c.fsyncs, c.compactions, c.readTime}
}

func (a fsCounts) sub(b fsCounts) fsCounts {
	return fsCounts{a.writeBytes - b.writeBytes, a.reads - b.reads, a.readBytes - b.readBytes,
		a.fsyncs - b.fsyncs, a.compactions - b.compactions, a.readTime - b.readTime}
}

// takeFsyncTimes returns and clears the recorded fsync latencies.
func (c *countingFS) takeFsyncTimes() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.fsyncTimes
	c.fsyncTimes = nil
	return out
}

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (chaos.File, error) {
	f, err := c.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (c *countingFS) Open(name string) (chaos.File, error) {
	f, err := c.OS.Open(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (c *countingFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	c.mu.Lock()
	c.writeBytes += int64(len(data))
	c.mu.Unlock()
	return c.OS.WriteFile(name, data, perm)
}

func (c *countingFS) Rename(oldpath, newpath string) error {
	if err := c.OS.Rename(oldpath, newpath); err != nil {
		return err
	}
	// Segment files are named seg-<first seq>-<last seq>.seg; a flush
	// writes one sequence number, a compaction merges a range.
	base := newpath[strings.LastIndexByte(newpath, '/')+1:]
	if parts := strings.Split(strings.TrimSuffix(base, ".seg"), "-"); len(parts) == 3 && parts[0] == "seg" && parts[1] != parts[2] {
		c.mu.Lock()
		c.compactions++
		c.mu.Unlock()
	}
	return nil
}

func (c *countingFS) SyncDir(dir string) error {
	t0 := time.Now()
	err := c.OS.SyncDir(dir)
	c.noteSync(time.Since(t0))
	return err
}

func (c *countingFS) noteSync(d time.Duration) {
	c.mu.Lock()
	c.fsyncs++
	c.fsyncTimes = append(c.fsyncTimes, d)
	c.mu.Unlock()
}

type countingFile struct {
	chaos.File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.mu.Lock()
	f.fs.writeBytes += int64(n)
	f.fs.mu.Unlock()
	return n, err
}

func (f *countingFile) ReadAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := f.File.ReadAt(p, off)
	d := time.Since(t0)
	f.fs.mu.Lock()
	f.fs.reads++
	f.fs.readBytes += int64(n)
	f.fs.readTime += d
	f.fs.mu.Unlock()
	return n, err
}

func (f *countingFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	f.fs.noteSync(time.Since(t0))
	return err
}
