package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"autotune"
	"autotune/internal/tunedb"
)

// Shape of the store-mixed database and of its traffic. The traffic is
// one node of the tuning service: between restarts it serves
// jobsPerRound jobs, making the database calls the driver makes for a
// search, then merges a peer node's database the way `tunedb merge`
// does. The calls per job are serve-mixed's traced figures; the
// number of jobs per merge and per restart are this workload's choice.
const (
	storePrograms = 1000   // program keys
	storeRecords  = 200000 // evaluation records populated at set-up

	jobsPerRound = 2
	jobEvals     = 820  // fresh evaluations per served job (serve-mixed's server.evals_per_job)
	frontPoints  = 8    // points of each stored front
	mergeRecords = 1000 // records of the peer's database; every fifth is new to this one

	// roundsPerEpoch rounds run between rebuilds of the database from
	// the seed, so the database states a run passes through do not
	// depend on how fast it is.
	roundsPerEpoch = 12
)

// shadow is the benchmark's model of what the database must hold.
// Program p holds its configurations configAt(p, 0 … n[p]-1), each
// with the objectives objsAt gives it, so the model keeps a count per
// program instead of a copy of the records.
type shadow struct {
	seed   uint64
	keys   []tunedb.Key
	ks     []string // canonical key strings
	n      []int
	fronts map[int]tunedb.FrontRecord
	// lastFront is the program whose front was written last.
	lastFront int
}

// newShadow draws the program keys from seed and starts every program
// empty.
func newShadow(seed int64) *shadow {
	rng := rand.New(rand.NewSource(seed))
	s := &shadow{seed: rng.Uint64(), n: make([]int, storePrograms), fronts: map[int]tunedb.FrontRecord{}}
	for i := 0; i < storePrograms; i++ {
		k := tunedb.Key{
			Fingerprint: fmt.Sprintf("%016x", rng.Uint64()),
			MachineSig:  machines[i%len(machines)],
			Objectives:  "time+resources",
			SpaceHash:   fmt.Sprintf("sp%016x", rng.Uint64()),
		}
		s.keys = append(s.keys, k)
		s.ks = append(s.ks, k.String())
	}
	return s
}

// configAt is program p's i-th configuration, shaped like a 3-D tiling
// with a thread count. The first two coordinates spell i in base 512,
// so distinct i below 512² give distinct configurations and indexOf
// inverts it.
func configAt(p, i int) autotune.Config {
	return autotune.Config{1 + int64(i%512), 1 + int64(i/512%512), 1 + int64((p+7*i)%512), 1 + int64((p+13*i)%40)}
}

// indexOf is the i with configAt(p, i) equal to cfg, if there is one.
func indexOf(p int, cfg autotune.Config) (int, bool) {
	if len(cfg) != 4 {
		return 0, false
	}
	i := int(cfg[0]-1) + 512*int(cfg[1]-1)
	if i < 0 {
		return 0, false
	}
	want := configAt(p, i)
	for d := range want {
		if cfg[d] != want[d] {
			return 0, false
		}
	}
	return i, true
}

// mix64 is the SplitMix64 finaliser.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// objsAt is the time and resource objectives stored for program p's
// i-th configuration.
func (s *shadow) objsAt(p, i int) []float64 {
	h := mix64(s.seed ^ uint64(p)<<32 ^ uint64(i))
	return []float64{float64(h>>11) / (1 << 53) * 10, float64(mix64(h)>>11) / (1 << 53) * 100}
}

// recordHash fingerprints one record for the full-scan checksum.
func recordHash(ks string, cfg []int64, objs []float64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(ks))
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, v := range cfg {
		put(uint64(v))
	}
	put(math.MaxUint64) // separates configuration from objectives
	for _, o := range objs {
		put(math.Float64bits(o))
	}
	return h.Sum64()
}

// records is the number of evaluation records the model holds.
func (s *shadow) records() int {
	total := 0
	for _, n := range s.n {
		total += n
	}
	return total
}

// checksum is the order-independent sum of every held record's hash.
func (s *shadow) checksum() uint64 {
	var sum uint64
	for p, n := range s.n {
		for i := 0; i < n; i++ {
			sum += recordHash(s.ks[p], configAt(p, i), s.objsAt(p, i))
		}
	}
	return sum
}

// liveBytes is the user data held: each record's database key and its
// evaluation encoded as JSON.
func (s *shadow) liveBytes() int64 {
	var total int64
	for p, n := range s.n {
		for i := 0; i < n; i++ {
			cfg := configAt(p, i)
			val, _ := json.Marshal(struct {
				Config     []int64   `json:"config"`
				Objectives []float64 `json:"objectives"`
			}{cfg, s.objsAt(p, i)})
			total += int64(len(s.ks[p]) + 1 + len(cfg.Key()) + len(val))
		}
	}
	return total
}

// checkGet compares a point read with the model.
func (s *shadow) checkGet(p int, cfg autotune.Config, got []float64, ok bool) error {
	i, valid := indexOf(p, cfg)
	present := valid && i < s.n[p]
	if ok != present {
		return fmt.Errorf("get %s %v: found=%v, the model says %v", s.ks[p], cfg, ok, present)
	}
	if present && !sameObjs(got, s.objsAt(p, i)) {
		return fmt.Errorf("get %s %v: %v, the model holds %v", s.ks[p], cfg, got, s.objsAt(p, i))
	}
	return nil
}

// scanned is one record a scan returned.
type scanned struct {
	cfg  autotune.Config
	objs []float64
}

// checkPrefix compares a one-key prefix scan with the model: the same
// records, in strictly increasing configuration-key order.
func (s *shadow) checkPrefix(p int, got []scanned) error {
	if len(got) != s.n[p] {
		return fmt.Errorf("scan %s: %d records, the model holds %d", s.ks[p], len(got), s.n[p])
	}
	prev := ""
	for j, g := range got {
		key := g.cfg.Key()
		if j > 0 && key <= prev {
			return fmt.Errorf("scan %s: %q after %q is out of order", s.ks[p], key, prev)
		}
		prev = key
		i, valid := indexOf(p, g.cfg)
		if !valid || i >= s.n[p] || !sameObjs(g.objs, s.objsAt(p, i)) {
			return fmt.Errorf("scan %s: %v -> %v is not a record the model holds", s.ks[p], g.cfg, g.objs)
		}
	}
	return nil
}

// checkFull compares a full scan's count and checksum with the model.
func (s *shadow) checkFull(n int, sum uint64, ordered bool) error {
	if !ordered {
		return fmt.Errorf("full scan returned keys out of order")
	}
	if want, wantSum := s.records(), s.checksum(); n != want || sum != wantSum {
		return fmt.Errorf("full scan: %d records (checksum %x), the model holds %d (%x)", n, sum, want, wantSum)
	}
	return nil
}

// checkFront compares a stored-front read with the front written last
// for the key, or with its absence.
func (s *shadow) checkFront(p int, got tunedb.FrontRecord, ok bool) error {
	want, present := s.fronts[p]
	if !present {
		if ok {
			return fmt.Errorf("front %s: found, but none was written", s.ks[p])
		}
		return nil
	}
	if !ok {
		return fmt.Errorf("front %s: missing", s.ks[p])
	}
	a, _ := json.Marshal(got)
	w, _ := json.Marshal(want)
	if string(a) != string(w) {
		return fmt.Errorf("front %s: stored %s, written %s", s.ks[p], a, w)
	}
	return nil
}

func sameObjs(a, b []float64) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// storeBench is one run's database, model and measurements.
type storeBench struct {
	r    *run
	rng  *rand.Rand
	zipf *rand.Zipf
	dir  string
	cfs  *countingFS // nil: the real filesystem, uncounted
	db   *tunedb.DB
	sh   *shadow

	setups, gets, puts, prefix, full, opens []time.Duration
	rates                                   []float64 // database calls per second, one per round
	roundCalls                              int       // calls made in rounds
	attempted, failed                       int
	allocs                                  uint64 // heap allocations in rounds
	epochs                                  int

	// traced: filesystem work inside point gets, and per-epoch state
	getReads, getReadBytes int64
	getReadTime            time.Duration
	bloomFiltered, bloomFP uint64
	userBytes              int64 // user data written, summed over epochs
	segments               int   // segment files at the end of the last epoch
	liveBytes, diskBytes   int64 // at the end of the last epoch
}

func newStoreBench(r *run, cfs *countingFS) *storeBench {
	return &storeBench{r: r, dir: filepath.Join(r.tmp, "store"), cfs: cfs}
}

// populate builds the database from the seed, storeRecords
// evaluations spread evenly over the storePrograms keys, then closes
// and reopens it, so the rounds start with every record in segment
// files, as after any restart. Every epoch's populate builds the same
// database. It records the time taken as set-up.
func (b *storeBench) populate() error {
	if b.db != nil {
		err := b.db.Close()
		b.db = nil
		if err != nil {
			return err
		}
	}
	if err := os.RemoveAll(b.dir); err != nil {
		return err
	}
	b.sh = newShadow(b.r.seed)
	t0 := time.Now()
	db, err := tunedb.OpenFS(b.dir, dbFS(b.cfs))
	if err != nil {
		return err
	}
	b.db = db
	for p := 0; p < storePrograms; p++ {
		for i := 0; i < storeRecords/storePrograms; i++ {
			if err := db.PutEval(b.sh.keys[p], configAt(p, i), b.sh.objsAt(p, i)); err != nil {
				return err
			}
		}
		b.sh.n[p] = storeRecords / storePrograms
	}
	if err := db.Close(); err != nil {
		b.db = nil
		return err
	}
	if b.db, err = tunedb.OpenFS(b.dir, dbFS(b.cfs)); err != nil {
		return err
	}
	b.setups = append(b.setups, time.Since(t0))
	return nil
}

// program draws a program key with skewed popularity.
func (b *storeBench) program() int { return int(b.zipf.Uint64()) }

// round runs one round: the jobs, the merge, the restart. A job's
// program is drawn uniformly: with skewed job keys, a run's cost would
// hinge on how often the few most popular keys, grown by earlier jobs,
// come up.
func (b *storeBench) round() error {
	for j := 0; j < jobsPerRound; j++ {
		b.job(b.rng.Intn(storePrograms))
	}
	b.merge()
	return b.restart()
}

// job makes the database calls of one served search of program p, in
// the driver's order: the warm-start scan of the key's evaluations,
// the read of its stored front (the exact-match step of
// NearestFront), a PutEval per fresh evaluation and the PutFront of
// the search's front.
func (b *storeBench) job(p int) {
	sh := b.sh
	var got []scanned
	t0 := time.Now()
	err := b.db.ScanEvals(sh.ks[p]+"|", func(_ string, cfg autotune.Config, objs []float64) bool {
		got = append(got, scanned{cfg, objs})
		return true
	})
	b.prefix = append(b.prefix, time.Since(t0))
	if err == nil {
		err = sh.checkPrefix(p, got)
	}
	b.note(err)

	rec, ok := b.db.Front(sh.keys[p])
	b.note(sh.checkFront(p, rec, ok))

	first := sh.n[p]
	for i := 0; i < jobEvals; i++ {
		b.note(b.putNext(p))
	}
	b.note(b.putFront(p, first))
}

// merge makes the calls `tunedb merge` makes for a peer database of
// mergeRecords records with skewed keys, every fifth of them new here:
// a GetEval for each record, a PutEval for each new one, then for the
// peer's one front a read of this database's front and, where it has
// none, a PutFront, which syncs.
func (b *storeBench) merge() {
	sh := b.sh
	for j := 0; j < mergeRecords; j++ {
		p := b.program()
		i := sh.n[p] // new here
		if j%5 != 4 {
			i = b.rng.Intn(sh.n[p])
		}
		cfg := configAt(p, i)
		var before fsCounts
		if b.cfs != nil {
			before = b.cfs.counts()
		}
		t0 := time.Now()
		objs, ok := b.db.GetEval(sh.keys[p], cfg)
		b.gets = append(b.gets, time.Since(t0))
		if b.cfs != nil {
			d := b.cfs.counts().sub(before)
			b.getReads += d.reads
			b.getReadBytes += d.readBytes
			b.getReadTime += d.readTime
		}
		b.note(sh.checkGet(p, cfg, objs, ok))
		if i == sh.n[p] {
			b.note(b.putNext(p))
		}
	}
	p := b.program()
	rec, ok := b.db.Front(sh.keys[p])
	b.note(sh.checkFront(p, rec, ok))
	if _, has := sh.fronts[p]; !has {
		b.note(b.putFront(p, b.rng.Intn(sh.n[p]-frontPoints+1)))
	}
}

// putNext stores program p's next configuration.
func (b *storeBench) putNext(p int) error {
	i := b.sh.n[p]
	t0 := time.Now()
	err := b.db.PutEval(b.sh.keys[p], configAt(p, i), b.sh.objsAt(p, i))
	b.puts = append(b.puts, time.Since(t0))
	if err == nil {
		b.sh.n[p]++
	}
	return err
}

// putFront stores a front of program p's configurations from, from+1,
// … as the key's front.
func (b *storeBench) putFront(p, from int) error {
	rec := tunedb.FrontRecord{Key: b.sh.keys[p], ObjectiveNames: []string{"time", "resources"}}
	for i := from; i < from+frontPoints; i++ {
		rec.Points = append(rec.Points, tunedb.FrontPoint{Config: configAt(p, i), Objectives: b.sh.objsAt(p, i)})
	}
	err := b.db.PutFront(rec) // sorts rec.Points in place and syncs
	if err == nil {
		b.sh.fronts[p] = rec
		b.sh.lastFront = p
	}
	return err
}

// restart closes and reopens the database, as a service restart does,
// and reads back the front written last.
func (b *storeBench) restart() error {
	if b.cfs != nil {
		if st, err := b.db.Stats(); err == nil {
			for _, s := range st.Shards {
				b.bloomFiltered += s.BloomFiltered
				b.bloomFP += s.BloomFalsePositives
			}
		}
	}
	b.attempted++
	if err := b.db.Close(); err != nil {
		b.db = nil
		b.failed++
		return err
	}
	b.attempted++
	t0 := time.Now()
	db, err := tunedb.OpenFS(b.dir, dbFS(b.cfs))
	b.opens = append(b.opens, time.Since(t0))
	if err != nil {
		b.failed++
		return err
	}
	b.db = db
	p := b.sh.lastFront
	rec, ok := db.Front(b.sh.keys[p])
	b.note(b.sh.checkFront(p, rec, ok))
	return nil
}

// fullScan reads every record, as `tunedb export` or a merge of this
// database into another does, and checks count, order and checksum.
func (b *storeBench) fullScan() {
	n, sum, ordered, prev := 0, uint64(0), true, ""
	t0 := time.Now()
	err := b.db.ScanEvals("", func(ks string, cfg autotune.Config, objs []float64) bool {
		if ks < prev {
			ordered = false
		}
		prev = ks
		n++
		sum += recordHash(ks, cfg, objs)
		return true
	})
	b.full = append(b.full, time.Since(t0))
	if err == nil {
		err = b.sh.checkFull(n, sum, ordered)
	}
	b.note(err)
}

// note counts one database call and its check.
func (b *storeBench) note(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		b.r.fail("%v", err)
	}
}

// finish closes the database and runs the offline checker over it.
func (b *storeBench) finish() {
	if b.db == nil {
		return
	}
	if err := b.db.Close(); err != nil {
		b.r.fail("closing the database: %v", err)
	}
	b.db = nil
	rep, err := tunedb.Fsck(b.dir)
	if err != nil {
		b.r.fail("fsck: %v", err)
	} else if !rep.OK() {
		b.r.fail("fsck: %s", rep)
	}
}

// run runs whole epochs for the given seconds (at least one). An
// epoch populates the database, runs roundsPerEpoch rounds and ends
// with a full scan; only the rounds count towards the call rate. The
// traffic draws run on across epochs, so a run covers more inputs.
func (b *storeBench) run(seconds float64) error {
	b.rng = rand.New(rand.NewSource(b.r.seed))
	b.zipf = rand.NewZipf(b.rng, 1.1, 1, storePrograms-1)
	allocs := newAllocCounter()
	end := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for b.epochs == 0 || time.Now().Before(end) {
		if err := b.populate(); err != nil {
			return err
		}
		a0 := allocs.read()
		for i := 0; i < roundsPerEpoch; i++ {
			n0 := b.attempted
			t0 := time.Now()
			if err := b.round(); err != nil {
				return err
			}
			b.rates = append(b.rates, float64(b.attempted-n0)/time.Since(t0).Seconds())
			b.roundCalls += b.attempted - n0
		}
		b.allocs += allocs.read() - a0
		b.fullScan()
		b.epochs++
		if b.cfs != nil {
			st, err := b.db.Stats()
			if err != nil {
				return err
			}
			b.segments, b.diskBytes, b.liveBytes = st.Segments, st.DiskBytes, b.sh.liveBytes()
			b.userBytes += b.liveBytes // every record is written once per epoch
		}
	}
	return nil
}

// storeMixed runs the database traffic until the time is up.
func storeMixed(r *run) (*result, error) {
	b := newStoreBench(r, nil)
	defer b.finish()
	if err := b.run(r.seconds); err != nil {
		return nil, err
	}
	res := &result{attempted: b.attempted, failed: b.failed}
	addCommon(res, b.setups)
	res.add("ops_per_s", median(b.rates), "1/s")
	res.add("allocs_per_op", float64(b.allocs)/float64(b.roundCalls), "count")
	lat := durations(b.gets)
	res.add("latency_ms_p50", quantile(lat, 0.5), "ms")
	res.add("latency_ms_p90", quantile(lat, 0.9), "ms")
	return res, nil
}

// storeLayerRun is the traced store path: the same epochs over a
// counting filesystem, reporting what each read and write cost the
// layers below the database API.
func storeLayerRun(r *run, res *result, seconds float64) error {
	cfs := &countingFS{}
	b := newStoreBench(r, cfs)
	defer b.finish()
	if err := b.run(seconds); err != nil {
		return err
	}
	res.attempted += b.attempted
	res.failed += b.failed
	c := cfs.counts()
	gets := float64(len(b.gets))
	epochs := float64(b.epochs)
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	ms := durations
	res.add("tunedb.open_ms_p50", median(ms(b.opens)), "ms")
	res.add("tunedb.prefix_scan_ms_p50", median(ms(b.prefix)), "ms")
	res.add("tunedb.full_scan_ms_p50", median(ms(b.full)), "ms")
	res.add("tunedb.put_us_p50", median(ms(b.puts))*1e3, "us")
	res.add("tunedb.get_us_p99", quantile(ms(b.gets), 0.99)*1e3, "us")
	res.add("tunedb.get_cpu_us", (us(sumDur(b.gets))-us(b.getReadTime))/gets, "us")
	res.add("store.reads_per_get", float64(b.getReads)/gets, "count")
	res.add("store.read_bytes_per_get", float64(b.getReadBytes)/gets, "B")
	res.add("store.read_us_per_get", us(b.getReadTime)/gets, "us")
	res.add("store.bloom_filtered_ratio", ratio(float64(b.bloomFiltered), float64(b.bloomFiltered+b.bloomFP)), "ratio")
	res.add("store.write_amp", float64(c.writeBytes)/float64(b.userBytes), "ratio")
	res.add("store.space_amp", float64(b.diskBytes)/float64(b.liveBytes), "ratio")
	res.add("store.fsyncs", float64(c.fsyncs)/epochs, "count")
	res.add("store.segments", float64(b.segments), "count")
	res.add("store.compactions", float64(c.compactions)/epochs, "count")
	return nil
}

func sumDur(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}
