package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/transactions"
	"repro/internal/wal"
	"repro/mining"
)

// kind is what a workload's main phase drives.
type kind int

const (
	// kindReads serves open-loop reads, then climbs the read ladder.
	kindReads kind = iota
	// kindIngest serves open-loop appends with reads beside them, then
	// climbs the append ladder.
	kindIngest
	// kindMine mines through the public API, with no server.
	kindMine
)

// The two arms of Auto's choice, as the pass statistics show them.
const (
	levelWise     = "level-wise"
	patternGrowth = "pattern growth"
)

// plan is one workload: its fixture, how the server is configured, the
// open-loop rates, and how --seconds is split between its phases. Each
// workload runs only its own phases: set-up, its main phase, and for the
// serving workloads a ladder.
type plan struct {
	name    string
	kind    kind
	d       int     // base transactions
	items   int     // item universe
	minsup  float64 // relative minimum support
	durable bool    // WAL with fsync=always, recovered from a prepared dir
	tail    int     // ops in the prepared WAL tail
	pool    int     // distinct read keys
	// nominal rates per second: reads (alone on read-hot, beside the
	// appends on ingest-mixed) and appends.
	readRate, appendRate float64
	// the ladder's starting rate.
	ladderBase float64
	// shares of --seconds: set-up, main phase, ladder.
	setup, main, ladder float64
	second              string // engine for the second-engine canonical check
	arm                 string // the arm Auto must pick on every mined database
	mineSets            int    // databases the mine figures are averaged over
}

// Latency limits of the ladders and the length of one rung. A failed
// request counts as over the limits.
const (
	readLimit = 20 * time.Millisecond
	ackLimit  = 100 * time.Millisecond
	rungLen   = 300 * time.Millisecond
)

// minSetups is the fewest set-ups setup_s is the median of.
const minSetups = 5

// plans are the workloads; their names are cited by later changes.
var plans = []plan{
	// The read ladder starts near the loopback read capacity of two
	// vCPUs, so that the search takes few rungs.
	{name: "read-hot", kind: kindReads, d: 20000, items: 1000, minsup: 0.0025, pool: 2560,
		readRate: 4000, ladderBase: 18000, setup: 0.2, main: 0.5, ladder: 0.3},
	{name: "ingest-mixed", kind: kindIngest, d: 20000, items: 1000, minsup: 0.0025, durable: true, tail: 2000, pool: 128,
		readRate: 1000, appendRate: 400, ladderBase: 2400, setup: 0.15, main: 0.6, ladder: 0.25},
	{name: "mine-sparse", kind: kindMine, d: 100000, items: 500, minsup: 0.003,
		setup: 0.15, main: 0.85, second: "FPGrowth", arm: levelWise, mineSets: 5},
	{name: "mine-dense", kind: kindMine, d: 100000, items: 1000, minsup: 0.002,
		setup: 0.15, main: 0.85, second: "Apriori", arm: patternGrowth, mineSets: 4},
}

// metric is one reported figure with its unit and sample count (0 when
// the figure is not a percentile or median).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// outcome is everything one run of a workload measured and checked.
type outcome struct {
	e2e       map[string]metric
	layer     map[string]metric
	selfTime  map[string]time.Duration
	attempted int
	failed    int
	shed      int // ladder requests abandoned past a rung's capacity
	info      []string
	checks    []string
	errs      []error
}

// set records a metric in m.
func set(m map[string]metric, name, unit string, v float64, n int) {
	m[name] = metric{Value: v, Unit: unit, N: n}
}

// appendRec is one append in send order.
type appendRec struct {
	row     []int
	acked   bool
	seq     uint64 // op sequence the server applied it at (acked only)
	nominal bool   // part of the nominal write phase
	due     time.Time
	ack     time.Time
}

// run is the state of one workload run.
type run struct {
	p     plan
	seed  int64
	secs  time.Duration
	tr    *tracer
	work  string
	fx    *fixture
	pool  []query
	rng   *rand.Rand
	o     *outcome
	cfg   serve.Config
	wfs   *walFS
	rows  [][]int // the rows the server or the mine started with
	srv   *serve.Server
	hs    *httpServer
	w     *watcher
	ops0  uint64
	sent  []appendRec
	acked int // appends acknowledged so far, in send order
	mu    sync.Mutex
	samps []sampled
	// the main phase's read picks, kept for the traced query replay.
	mainPicks []int
	late      []shot      // the main phase's shots, for the generator's lateness
	ref0      *reference  // from-scratch mine of rows
	pubs      []published // the watcher's records once it has stopped
	peakRSS   float64     // MB, over set-up and the main phase
}

// sampled is one read response kept for verification.
type sampled struct {
	q    query
	body []byte
}

// sampleEvery keeps one read response in this many for verification.
const sampleEvery = 8

// runWorkload runs p once for secs, traced when tr is set.
func runWorkload(ctx context.Context, p plan, seed int64, secs time.Duration, work string, fx *fixture, tr *tracer) (*outcome, error) {
	r := &run{p: p, seed: seed, secs: secs, tr: tr, work: work, fx: fx,
		rng: rand.New(rand.NewSource(seed ^ 0x5eed)),
		o:   &outcome{e2e: map[string]metric{}, layer: map[string]metric{}}}
	r.rows = fx.base
	if p.durable {
		r.rows = append(append([][]int(nil), fx.base...), fx.appends[:p.tail]...)
	}
	defer r.cleanup()
	if p.kind == kindMine {
		if err := r.mineWorkload(ctx); err != nil {
			return nil, err
		}
		return r.o, nil
	}
	r.pool = queryPool(r.rng, fx.base, p.pool)
	r.cfg = serve.Config{
		MinSupport:    p.minsup,
		MaintainEvery: 2 * time.Second,
		Options:       []mining.Option{mining.Algorithm("Auto"), mining.Workers(0), mining.ShardCap(0)},
	}
	if err := r.serveWorkload(ctx); err != nil {
		return nil, err
	}
	return r.o, nil
}

// cleanup stops whatever is still running.
func (r *run) cleanup() {
	if r.w != nil {
		r.w.close()
		r.w = nil
	}
	if r.hs != nil {
		r.hs.stop()
		r.hs = nil
	}
	if r.srv != nil {
		r.srv.Close()
		r.srv = nil
	}
}

// share converts a share of --seconds to a duration.
func (r *run) share(f float64) time.Duration { return time.Duration(f * float64(r.secs)) }

// fail records a failed output check.
func (r *run) fail(err error) { r.o.errs = append(r.o.errs, err) }

// resetPeak restarts the resident-set high-water mark. A kernel that
// refuses the reset would leave peak_rss_mb covering the fixture
// generation and whatever ran before, so the run stops instead.
func (r *run) resetPeak() error {
	if err := resetPeakRSS(); err != nil {
		return fmt.Errorf("peak_rss_mb cannot be measured: %w", err)
	}
	return nil
}

// notePeak folds the resident-set high-water mark since the last reset
// into r.peakRSS and returns it.
func (r *run) notePeak() (float64, error) {
	rss, err := peakRSSMB()
	r.peakRSS = max(r.peakRSS, rss)
	return rss, err
}

// procFigures records the process's CPU, GC and host figures since the
// given readings.
func (r *run) procFigures(cpu0 time.Duration, gc0 gcSnap, ticks0, steal0 uint64) {
	if ticks, steal := hostTicks(); ticks > ticks0 {
		r.o.info = append(r.o.info, fmt.Sprintf("host: the hypervisor stole %.1f%% of this machine's CPU time during the run", 100*float64(steal-steal0)/float64(ticks-ticks0)))
	}
	cycles, pause := gcSince(gc0)
	set(r.o.layer, "proc.cpu_us_per_op", "us", us(cpuTime()-cpu0)/float64(max(r.o.attempted, 1)), 0)
	set(r.o.layer, "proc.gc_cycles", "count", cycles, 0)
	set(r.o.layer, "proc.gc_pause_p99_us", "us", pause, 0)
}

// timeSetups runs once, each time from a collected heap, for the set-up
// share of the run and at least minSetups times, and records the median
// processor and wall time of one as setup_s and setup_wall_s. once
// returns the wall and processor seconds of its timed part.
func (r *run) timeSetups(once func() (wall, cpu float64, err error)) error {
	var walls, cpus []float64
	deadline := time.Now().Add(r.share(r.p.setup))
	for len(cpus) < minSetups || time.Now().Before(deadline) {
		runtime.GC()
		r.o.attempted++
		wall, cpu, err := once()
		if err != nil {
			r.o.failed++
			return err
		}
		walls, cpus = append(walls, wall), append(cpus, cpu)
	}
	set(r.o.e2e, "setup_s", "s", median(cpus), len(cpus))
	set(r.o.e2e, "setup_wall_s", "s", median(walls), len(walls))
	return nil
}

// serveConfig returns the server configuration over a fresh copy of the
// prepared dir at dir (durable), and the initial database to pass.
func (r *run) serveConfig(db *mining.DB, prep, dir string) (serve.Config, *mining.DB, error) {
	cfg := r.cfg
	if !r.p.durable {
		return cfg, db, nil
	}
	if err := copyDir(prep, dir); err != nil {
		return cfg, nil, err
	}
	cfg.DataDir = dir
	return cfg, nil, nil
}

// serveSetup times one serve.New until ready (WAL recovery and replay
// included for the durable workload) and closes the server again.
func (r *run) serveSetup(db *mining.DB, prep string) (wall, cpu float64, err error) {
	cfg, in, err := r.serveConfig(db, prep, filepath.Join(r.work, "setup"))
	if err != nil {
		return 0, 0, err
	}
	sw := startWatch()
	srv, err := serve.New(in, cfg)
	if err != nil {
		return 0, 0, fmt.Errorf("serve.New: %w", err)
	}
	ready := srv.Ready()
	wall, cpu = sw.elapsed()
	if err := srv.Close(); err != nil {
		return 0, 0, fmt.Errorf("closing set-up server: %w", err)
	}
	if !ready {
		return 0, 0, fmt.Errorf("serve.New returned a server that is not ready")
	}
	return wall, cpu, nil
}

// serveWorkload runs a serving workload: timed set-ups, then the live
// server on loopback for the main phase and the ladder, then the output
// checks.
func (r *run) serveWorkload(ctx context.Context) error {
	prep := ""
	if r.p.durable {
		prep = filepath.Join(r.work, "prepared")
		if err := prepareDir(prep, r.fx.base, r.fx.appends[:r.p.tail]); err != nil {
			return err
		}
	}
	// dmserve reads its -in file the same way.
	db, err := mining.ReadBasket(bytes.NewReader(r.fx.raw))
	if err != nil {
		return fmt.Errorf("parsing fixture: %w", err)
	}
	if r.ref0, err = mineReference(ctx, r.rows, r.p.minsup); err != nil {
		return err
	}
	if err := r.resetPeak(); err != nil {
		return err
	}
	cpu0, gc0 := cpuTime(), readGC()
	ticks0, steal0 := hostTicks()
	if err := r.timeSetups(func() (float64, float64, error) { return r.serveSetup(db, prep) }); err != nil {
		return err
	}
	// The set-ups' garbage goes back to the OS before the live server
	// starts, so that the main phase's resident set does not depend on
	// how much of it the scavenger had returned.
	setupPeak, err := r.notePeak()
	if err != nil {
		return err
	}
	if err := r.resetPeak(); err != nil {
		return err
	}
	cfg, in, err := r.serveConfig(db, prep, filepath.Join(r.work, "live"))
	if err != nil {
		return err
	}
	if r.p.durable && r.tr != nil {
		fsys, err := wal.DirFS(cfg.DataDir)
		if err != nil {
			return err
		}
		r.wfs = newWalFS(fsys, r.tr)
		cfg.FS = r.wfs
	}
	if r.srv, err = serve.New(in, cfg); err != nil {
		return fmt.Errorf("starting server: %w", err)
	}
	r.cfg = cfg
	if r.hs, err = startHTTP(r.srv, r.tr); err != nil {
		return err
	}
	r.w = watch(r.srv, r.tr != nil)
	r.ops0 = r.srv.Stats().Ops

	reads := newClient(r.hs.base, 2, r.tr)
	defer reads.close()
	posts := newClient(r.hs.base, 1, r.tr)
	defer posts.close()
	if r.p.kind == kindReads {
		r.readMain(ctx, reads)
	} else {
		r.ingestMain(ctx, posts, reads)
	}
	set(r.o.layer, "loadgen.late_p99_us", "us", lateP99(r.late), len(r.late))
	// The ladder comes after the peak is read: the memory it holds in
	// flight depends on how far it climbs, which the host's speed sets,
	// not the program.
	mainPeak, err := r.notePeak()
	if err != nil {
		return err
	}
	set(r.o.e2e, "peak_rss_mb", "MB", r.peakRSS, 0)
	r.o.info = append(r.o.info, fmt.Sprintf("peak resident set: set-ups %.1f MB, main phase %.1f MB", setupPeak, mainPeak))
	if r.p.kind == kindReads {
		r.readLadder(ctx, reads)
	} else {
		r.ingestLadder(ctx, posts, reads)
	}
	r.procFigures(cpu0, gc0, ticks0, steal0)
	st := r.srv.Stats()
	r.o.info = append(r.o.info, fmt.Sprintf("server: %d publishes, %d full runs, %d snapshots, %d ops, %d rules at the floor",
		st.Maintains, st.FullRuns, st.Snapshots, st.Ops, len(r.srv.View().Rules())))
	if r.p.kind == kindIngest {
		// Let the appends of the nominal phase that were still pending at
		// its end go live through the server's own triggers.
		r.waitVisible(ctx)
		r.visibility()
	}
	if r.tr != nil {
		r.traceServe(ctx)
	}
	r.w.close()
	r.pubs = r.w.snapshot()
	r.w = nil
	r.o.layer["proc.heap_peak_mb"] = metric{Value: max(r.o.layer["proc.heap_peak_mb"].Value, heapMB()), Unit: "MB"}
	if err := r.verifyServed(ctx, prep); err != nil {
		return err
	}
	if r.tr == nil {
		return nil
	}
	mdb, err := mining.NewDB(r.rows)
	if err != nil {
		return err
	}
	if err := r.traceMine(ctx, mdb); err != nil {
		return err
	}
	return r.traceLayers(ctx, prep)
}

// readMain is read-hot's main phase: open-loop reads at the nominal rate
// from two connections.
func (r *run) readMain(ctx context.Context, c *client) {
	// Collect the set-up's garbage now, so that the collector's work on
	// it does not land in the measured phase.
	runtime.GC()
	before := r.srv.Stats()
	st, picks := r.readStream(c, r.p.readRate, r.share(r.p.main), 2, true)
	c0 := cpuTime()
	start := runStreams(ctx, st)
	set(r.o.e2e, "op_cpu_us", "us", us(cpuTime()-c0)/float64(len(st.shots)), len(st.shots))
	r.account(start, st, 0, false)
	r.cacheRatio(before, r.srv.Stats())
	r.mainPicks, r.late = picks, st.shots
	p50, p99, n := windowed(st.shots)
	set(r.o.e2e, "read_p50_us", "us", p50, n)
	set(r.o.e2e, "read_p99_us", "us", p99, n)
}

// readLadder finds read-hot's highest passing read rate.
func (r *run) readLadder(ctx context.Context, c *client) {
	top := ladder(r.p.ladderBase, r.share(r.p.ladder), func(rate float64) bool {
		st, _ := r.readStream(c, rate, rungLen, 2, false)
		start := runStreams(ctx, st)
		r.account(start, st, 0, true)
		return rungOK(st.shots, readLimit, rungLen)
	})
	set(r.o.e2e, "read_max_qps", "req/s", top, 0)
}

// ingestMain is ingest-mixed's main phase: fixed-rate durable appends on
// one connection with open-loop reads beside them on another.
func (r *run) ingestMain(ctx context.Context, posts, reads *client) {
	runtime.GC()
	before := r.srv.Stats()
	d := r.share(r.p.main)
	ap, first := r.appendStream(posts, r.p.appendRate, d, true)
	rd, picks := r.readStream(reads, r.p.readRate, d, 1, true)
	c0 := cpuTime()
	start := runStreams(ctx, ap, rd)
	n := len(ap.shots) + len(rd.shots)
	set(r.o.e2e, "op_cpu_us", "us", us(cpuTime()-c0)/float64(n), n)
	r.account(start, ap, first, false)
	r.account(start, rd, 0, false)
	after := r.srv.Stats()
	r.cacheRatio(before, after)
	r.mainPicks, r.late = picks, append(append([]shot(nil), ap.shots...), rd.shots...)
	p50, p99, nr := windowed(rd.shots)
	set(r.o.e2e, "read_p50_us", "us", p50, nr)
	set(r.o.e2e, "read_p99_us", "us", p99, nr)
	p50, p99, na := windowed(ap.shots)
	set(r.o.e2e, "ack_p50_us", "us", p50, na)
	set(r.o.e2e, "ack_p99_us", "us", p99, na)
	if m := after.Maintains - before.Maintains; m > 0 {
		set(r.o.layer, "serve.full_run_frac", "ratio", float64(after.FullRuns-before.FullRuns)/float64(m), int(m))
	}
}

// ingestLadder finds ingest-mixed's highest passing append rate, with
// the nominal reads still running.
func (r *run) ingestLadder(ctx context.Context, posts, reads *client) {
	top := ladder(r.p.ladderBase, r.share(r.p.ladder), func(rate float64) bool {
		ap, first := r.appendStream(posts, rate, rungLen, false)
		rd, _ := r.readStream(reads, r.p.readRate, rungLen, 1, true)
		start := runStreams(ctx, ap, rd)
		r.account(start, ap, first, true)
		r.account(start, rd, 0, true)
		return rungOK(ap.shots, ackLimit, rungLen) && failures(rd.shots) == 0
	})
	set(r.o.e2e, "ingest_max_ops_per_s", "ops/s", top, 0)
}

// mineWorkload runs a mine workload: timed parses of the fixture bytes,
// then Mine plus Rules over the workload's rows and mineSets-1 further
// databases of the same shape on seeds derived from the workload's. The
// figures are the mean over the databases of the median of at least
// three timed mines each, so that one seed's pattern structure does not
// set them. Every database must be mined by the arm of Auto's choice the
// workload stands for, and the workload's own result must equal a second
// engine's.
func (r *run) mineWorkload(ctx context.Context) error {
	if err := r.resetPeak(); err != nil {
		return err
	}
	cpu0, gc0 := cpuTime(), readGC()
	ticks0, steal0 := hostTicks()
	var db *mining.DB
	parse := func() (float64, float64, error) {
		sw := startWatch()
		var err error
		if db, err = mining.ReadBasket(bytes.NewReader(r.fx.raw)); err != nil {
			return 0, 0, fmt.Errorf("parsing fixture: %w", err)
		}
		wall, cpu := sw.elapsed()
		return wall, cpu, nil
	}
	if err := r.timeSetups(parse); err != nil {
		return err
	}
	if r.tr != nil {
		t0 := r.tr.now()
		if _, _, err := parse(); err != nil {
			return err
		}
		el := r.tr.now() - t0
		r.tr.add(0, 0, "transactions.parse", t0, t0+el)
		set(r.o.layer, "transactions.parse_ms", "ms", ms(el), 0)
		set(r.o.layer, "transactions.parse_mb_per_s", "MB/s", float64(len(r.fx.raw))/(1<<20)/el.Seconds(), 0)
	}
	var walls, cpus []float64
	n := 0
	each := r.share(r.p.main) / time.Duration(r.p.mineSets)
	others := otherSeeds(r.p.mineSets-1, r.seed)
	for i := -1; i < len(others); i++ {
		if i >= 0 {
			// The next database is made outside the peak's window: it is
			// the benchmark's work, not the program's.
			fx, err := makeFixture(len(r.rows), 0, r.p.items, others[i])
			if err != nil {
				return fmt.Errorf("generating fixture: %w", err)
			}
			if db, err = mining.NewDB(fx.base); err != nil {
				return err
			}
			if err := r.resetPeak(); err != nil {
				return err
			}
		}
		wall, cpu, k, err := r.mineDB(ctx, db, i+1, each)
		if err != nil {
			return err
		}
		walls, cpus, n = append(walls, wall), append(cpus, cpu), n+k
		if _, err := r.notePeak(); err != nil {
			return err
		}
	}
	set(r.o.e2e, "op_cpu_us", "us", 1e6*mean(cpus), n)
	set(r.o.e2e, "mine_s", "s", mean(walls), n)
	set(r.o.e2e, "peak_rss_mb", "MB", r.peakRSS, 0)
	r.procFigures(cpu0, gc0, ticks0, steal0)
	if err := r.verifySecondEngine(ctx); err != nil {
		return err
	}
	if r.tr == nil {
		return nil
	}
	db, err := mining.NewDB(r.rows)
	if err != nil {
		return err
	}
	return r.traceMine(ctx, db)
}

// mineDB times Mine plus Rules over db after one warm-up mine, each
// timed mine from a collected heap, until at least three ran and budget
// passed. It returns the median wall and processor seconds of one and
// how many were timed. The warm-up's result must show the workload's arm
// of Auto; for the workload's own rows (set 0) it is also kept as the
// reference the second engine is compared with.
func (r *run) mineDB(ctx context.Context, db *mining.DB, idx int, budget time.Duration) (wall, cpu float64, n int, err error) {
	mine := func() (*mining.Result, error) {
		r.o.attempted++
		res, err := mining.Mine(ctx, db, mining.MinSupport(r.p.minsup), mining.Workers(0))
		if err != nil {
			r.o.failed++
			return nil, fmt.Errorf("mining: %w", err)
		}
		rules, err := res.Rules(ruleFloor)
		if err != nil {
			r.o.failed++
			return nil, fmt.Errorf("rules: %w", err)
		}
		if idx == 0 && r.ref0 == nil {
			r.ref0 = &reference{numTx: db.Len(), res: res, rules: rules}
		}
		return res, nil
	}
	res, err := mine()
	if err != nil {
		return 0, 0, 0, err
	}
	r.check(fmt.Sprintf("Auto mined database %d %s", idx, r.p.arm), checkArm(res, r.p.arm))
	var walls, cpus []float64
	deadline := time.Now().Add(budget)
	for len(walls) < 3 || time.Now().Before(deadline) {
		// Each timed mine starts from a collected heap, so that its
		// collector work does not depend on what ran before it.
		runtime.GC()
		sw := startWatch()
		if _, err := mine(); err != nil {
			return 0, 0, 0, err
		}
		w, c := sw.elapsed()
		walls, cpus = append(walls, w), append(cpus, c)
	}
	return median(walls), median(cpus), len(walls), nil
}

// checkArm tells from a result's pass statistics which arm of Auto mined
// it and fails unless it is want. The level-wise engine counts every
// pair of frequent items in pass 2; pattern growth reports each level's
// frequent itemsets as its candidates.
func checkArm(res *mining.Result, want string) error {
	passes := res.Passes()
	if len(passes) < 2 {
		return fmt.Errorf("only %d passes: too few frequent items to tell the arm", len(passes))
	}
	l1, p2 := passes[0].Frequent, passes[1]
	got := "neither arm"
	switch {
	case p2.Candidates == l1*(l1-1)/2 && p2.Candidates != p2.Frequent:
		got = levelWise
	case p2.Candidates == p2.Frequent:
		got = patternGrowth
	}
	if got != want {
		return fmt.Errorf("ran %s (|L1| = %d, pass 2: %d candidates, %d frequent), want %s", got, l1, p2.Candidates, p2.Frequent, want)
	}
	return nil
}

// verifySecondEngine checks that Auto's canonical bytes over the
// workload's rows equal the second engine's.
func (r *run) verifySecondEngine(ctx context.Context) error {
	db, err := mining.NewDB(r.rows)
	if err != nil {
		return err
	}
	res, err := mining.Mine(ctx, db, mining.MinSupport(r.p.minsup), mining.Algorithm(r.p.second), mining.Workers(0))
	if err != nil {
		return fmt.Errorf("second engine: %w", err)
	}
	r.check(fmt.Sprintf("Auto's canonical bytes equal %s's", r.p.second), checkCanonical(r.p.second, r.ref0.res.Canonical(), res.Canonical()))
	return nil
}

// readStream builds an open-loop stream of Zipf-picked reads at rate for
// d, with workers connections.
func (r *run) readStream(c *client, rate float64, d time.Duration, workers int, keep bool) (*stream, []int) {
	due := poissonSchedule(r.rng, rate, d)
	picks := zipfPicks(r.rng, len(r.pool), len(due))
	st := &stream{name: "read", workers: workers, due: due, cutoff: d + 250*time.Millisecond}
	bufs := make(chan *bytes.Buffer, workers) // one body buffer per worker
	for w := 0; w < workers; w++ {
		bufs <- new(bytes.Buffer)
	}
	st.do = func(ctx context.Context, i int) error {
		q := r.pool[picks[i]]
		buf := <-bufs
		defer func() { bufs <- buf }()
		body, err := c.do(ctx, "GET", q.path, nil, buf)
		if err == nil && keep && i%sampleEvery == 0 {
			r.mu.Lock()
			r.samps = append(r.samps, sampled{q: q, body: append([]byte(nil), body...)})
			r.mu.Unlock()
		}
		return err
	}
	return st, picks
}

// appendStream builds the point-of-sale append stream: one basket per
// POST at a fixed rate, on one connection. Each request is sent after
// the previous one was answered and the server applies ops in arrival
// order, so the k-th acknowledged append is op ops0+k. Its sequence is
// taken from that count, not from the server's op counter after the
// reply: the counter can lag an acknowledgement, and a lagging
// sequence would map the append to a view published before it was
// applied. ackedRows checks at the end that the server applied exactly
// the acknowledged appends.
func (r *run) appendStream(c *client, rate float64, d time.Duration, nominal bool) (*stream, int) {
	due := fixedSchedule(rate, d)
	first := len(r.sent)
	pool := r.fx.appends[r.p.tail:]
	for i := range due {
		r.sent = append(r.sent, appendRec{row: pool[(first+i)%len(pool)], nominal: nominal})
	}
	st := &stream{name: "append", workers: 1, due: due, cutoff: d + ackLimit}
	var b, resp bytes.Buffer // the stream's single worker owns both
	st.do = func(ctx context.Context, i int) error {
		rec := &r.sent[first+i]
		b.Reset()
		writeBasket(&b, rec.row)
		if _, err := c.do(ctx, "POST", "/v1/append", b.Bytes(), &resp); err != nil {
			return err
		}
		r.acked++
		rec.acked, rec.seq = true, r.ops0+uint64(r.acked)
		return nil
	}
	return st, first
}

// account adds a stream's shots to the attempted and failed counts and,
// for appends, stamps due and ack times on their records. In a ladder
// rung (ladder true) a request the generator abandoned because the
// rung was over capacity is shed load, not a failure of the program:
// it fails the rung and is counted as shed; errors still count as
// failed.
func (r *run) account(start time.Time, st *stream, first int, ladder bool) {
	for _, s := range st.shots {
		switch {
		case !s.failed:
			r.o.attempted++
		case s.abandoned && ladder:
			r.o.shed++
		default:
			r.o.attempted++
			r.o.failed++
		}
	}
	if st.name != "append" {
		return
	}
	for i, s := range st.shots {
		r.sent[first+i].due = start.Add(s.due)
		r.sent[first+i].ack = start.Add(s.end)
	}
}

// cacheRatio records the query cache's hit ratio between two stats.
func (r *run) cacheRatio(before, after serve.Stats) {
	hits := after.CacheHits - before.CacheHits
	lookups := hits + after.CacheMisses - before.CacheMisses
	if lookups > 0 {
		set(r.o.layer, "serve.cache_hit_ratio", "ratio", float64(hits)/float64(lookups), int(lookups))
	}
}

// waitVisible waits (bounded by the maintain timer) until the server
// has published every acknowledged nominal append.
func (r *run) waitVisible(ctx context.Context) {
	var last uint64
	for _, a := range r.sent {
		if a.nominal && a.acked {
			last = max(last, a.seq)
		}
	}
	deadline := time.Now().Add(2*r.cfg.MaintainEvery + time.Second)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		if _, ok := visibleAt(r.w.snapshot(), last); ok {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// visibility computes append-to-visible latency for the nominal phase:
// from each acknowledged append's due time to the first published view
// whose op count covers it.
func (r *run) visibility() {
	pubs := r.w.snapshot()
	var vis, ackVis []float64
	missing := 0
	for _, a := range r.sent {
		if !a.nominal || !a.acked {
			continue
		}
		at, ok := visibleAt(pubs, a.seq)
		if !ok {
			missing++
			continue
		}
		vis = append(vis, ms(at.Sub(a.due)))
		ackVis = append(ackVis, ms(at.Sub(a.ack)))
	}
	if missing > 0 {
		r.fail(fmt.Errorf("%d acknowledged appends never became visible", missing))
	}
	d := newDist(vis)
	set(r.o.e2e, "visible_p50_ms", "ms", d.pct(0.5), len(d))
	set(r.o.e2e, "visible_p99_ms", "ms", d.pct(0.99), len(d))
	set(r.o.layer, "serve.ack_to_visible_p50_ms", "ms", newDist(ackVis).pct(0.5), len(ackVis))
	var between []float64
	for i := 1; i < len(pubs); i++ {
		if pubs[i].ops > r.ops0 {
			between = append(between, float64(pubs[i].ops-pubs[i-1].ops))
		}
	}
	if len(between) > 0 {
		set(r.o.layer, "serve.ops_per_publish", "count", median(between), len(between))
	}
}

// ackedRows returns the rows the server holds after the run: its
// starting rows plus every acknowledged append, in apply order. It
// fails when the server applied a different number of appends than
// were acknowledged (a failed request that was applied anyway), since
// the apply order is then unknown.
func (r *run) ackedRows() ([][]int, error) {
	rows := append([][]int(nil), r.rows...)
	for _, a := range r.sent {
		if a.acked {
			rows = append(rows, a.row)
		}
	}
	if applied := r.srv.Stats().Ops - r.ops0; applied != uint64(len(rows)-len(r.rows)) {
		return nil, fmt.Errorf("server applied %d appends, %d were acknowledged", applied, len(rows)-len(r.rows))
	}
	return rows, nil
}

// verifyServed runs the serving workloads' output checks: the served
// canonical bytes after a flush against a from-scratch mine, sampled
// read responses against from-scratch answers at their version, and
// for the durable workload the WAL's recovered rows and a reopened
// server's bytes.
func (r *run) verifyServed(ctx context.Context, prep string) error {
	c := newClient(r.hs.base, 1, nil)
	defer c.close()
	var buf bytes.Buffer
	if _, err := c.do(ctx, "POST", "/v1/flush", nil, &buf); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	served, err := c.do(ctx, "GET", "/v1/canonical", nil, &buf)
	if err != nil {
		return fmt.Errorf("canonical: %w", err)
	}
	served = append([]byte(nil), served...)
	rows, err := r.ackedRows()
	if err != nil {
		r.fail(err)
		return nil
	}
	final := r.ref0
	if len(rows) != len(r.rows) {
		if final, err = mineReference(ctx, rows, r.p.minsup); err != nil {
			return err
		}
	}
	r.check("served canonical after flush equals a from-scratch mine", checkCanonical("served", served, final.res.Canonical()))
	r.verifySamples(ctx, rows)
	if !r.p.durable {
		return nil
	}
	copyAt := filepath.Join(r.work, "recover-final")
	if err := copyDir(r.cfg.DataDir, copyAt); err != nil {
		return err
	}
	fsys, err := wal.DirFS(copyAt)
	if err != nil {
		return err
	}
	rec, err := wal.Recover(fsys)
	if err != nil {
		return fmt.Errorf("recovering the live dir: %w", err)
	}
	got := make([][]int, 0, len(rec.Snapshot)+len(rec.Tail))
	for _, t := range rec.Snapshot {
		got = append(got, []int(t))
	}
	for _, op := range rec.Tail {
		got = append(got, op.Items)
	}
	r.check("WAL recovers every acknowledged append in order", checkRows("recovered", got, rows))
	r.hs.stop()
	r.hs = nil
	if err := r.srv.Close(); err != nil {
		return fmt.Errorf("closing server: %w", err)
	}
	r.srv = nil
	cfg := r.cfg
	cfg.FS = nil
	again, err := serve.New(nil, cfg)
	if err != nil {
		return fmt.Errorf("reopening: %w", err)
	}
	r.check("close and reopen recovers the same canonical bytes", checkCanonical("reopened", again.View().Canonical(), served))
	if err := again.Close(); err != nil {
		return fmt.Errorf("closing reopened server: %w", err)
	}
	return nil
}

// check records a passed or failed output check.
func (r *run) check(what string, err error) {
	if err != nil {
		r.fail(fmt.Errorf("%s: %w", what, err))
		return
	}
	r.o.checks = append(r.o.checks, what)
}

// maxVersions bounds how many served versions get a from-scratch
// reference mine per run (each costs one full mine).
const maxVersions = 3

// verifySamples checks sampled read responses against from-scratch
// answers. The rows at a version are the starting rows plus the first
// (ops - ops0) acknowledged appends; versions are mapped to op counts
// through the watcher's records.
func (r *run) verifySamples(ctx context.Context, rows [][]int) {
	opsOf := map[uint64]uint64{}
	for _, p := range r.pubs {
		opsOf[p.version] = p.ops
	}
	byVersion := map[uint64][]sampled{}
	for _, s := range r.samps {
		v, err := versionOf(s.body)
		if err != nil {
			r.fail(err)
			return
		}
		byVersion[v] = append(byVersion[v], s)
	}
	var versions []uint64
	for v := range byVersion {
		if _, ok := opsOf[v]; ok {
			versions = append(versions, v)
		}
	}
	sort.Slice(versions, func(i, j int) bool {
		a, b := len(byVersion[versions[i]]), len(byVersion[versions[j]])
		if a != b {
			return a > b
		}
		return versions[i] < versions[j]
	})
	if len(versions) > maxVersions {
		versions = versions[:maxVersions]
	}
	checked := 0
	for _, v := range versions {
		n := len(r.rows) + int(opsOf[v]-r.ops0)
		ref := r.ref0
		if n != len(r.rows) {
			var err error
			if ref, err = mineReference(ctx, rows[:n], r.p.minsup); err != nil {
				r.fail(err)
				return
			}
		}
		for _, s := range byVersion[v] {
			if err := checkSample(s.q, v, s.body, ref); err != nil {
				r.fail(err)
				return
			}
			checked++
		}
	}
	if checked == 0 {
		r.fail(fmt.Errorf("no sampled read response could be verified"))
		return
	}
	r.o.checks = append(r.o.checks, fmt.Sprintf("%d sampled read responses over %d versions equal from-scratch answers", checked, len(versions)))
}

// prepareDir writes the durable workload's starting data directory: a
// snapshot of the base rows at op 0 and a log tail of appends after it,
// as a server that ingested them and then stopped would leave it.
func prepareDir(dir string, base, tail [][]int) error {
	fsys, err := wal.DirFS(dir)
	if err != nil {
		return err
	}
	log, _, err := wal.Open(fsys, wal.Options{Policy: wal.SyncNever})
	if err != nil {
		return fmt.Errorf("preparing wal: %w", err)
	}
	txs := make([]transactions.Itemset, len(base))
	for i, row := range base {
		txs[i] = transactions.NewItemset(row...)
	}
	if err := log.Snapshot(txs, 0); err != nil {
		log.Close()
		return fmt.Errorf("preparing snapshot: %w", err)
	}
	for _, row := range tail {
		if _, err := log.Append(wal.Op{Kind: int(serve.OpAppend), Items: row}); err != nil {
			log.Close()
			return fmt.Errorf("preparing tail: %w", err)
		}
	}
	if err := log.Sync(); err != nil {
		log.Close()
		return fmt.Errorf("preparing tail: %w", err)
	}
	return log.Close()
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

// copyFile copies one file.
func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
