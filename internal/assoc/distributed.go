package assoc

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/dist"
	"repro/internal/fptree"
	"repro/internal/transactions"
)

// Engine names Distributed dispatches between.
const (
	// DistEngineApriori runs level-wise count distribution: every pass's
	// counting scan fans out over the workers (pass-1 arrays, triangular
	// pass 2, hash-tree buffers for k >= 3) and the coordinator merges and
	// thresholds, exactly Apriori's structure with the scans remoted.
	DistEngineApriori = "Apriori"
	// DistEngineFPGrowth builds the FP-tree distributed (one tree per
	// worker over its shards, merged path-wise by the coordinator) and
	// runs pattern growth locally over the merged tree.
	DistEngineFPGrowth = "FPGrowth"
)

// Distributed is the coordinator-side mining engine over internal/dist: it
// ships database shards to workers once, runs every counting scan remotely
// and merges the returned buffers with the same commutative integer adds
// the local engines use — so distributed results are byte-identical to a
// local Apriori or FPGrowth run, a property the tests pin at workers 1, 2
// and 4.
//
// Two shard sources exist. A plain Mine(db, minSupport) splits db into one
// contiguous shard per worker and ships them all (a fresh epoch per call,
// since a plain DB carries no version stamps). BindStore attaches a
// transactions.ShardedDB instead: Mine then ships the store's shards under
// their own version stamps and re-ships only shards whose version changed
// since the last run — the incremental maintainer's dirty-shard protocol
// carried across the transport, which is what makes Distributed a useful
// Incremental base (only dirty shards travel after an Append/DeleteAt).
type Distributed struct {
	// Transport carries shards and count requests. nil lazily builds an
	// in-process channel transport with Workers workers in gob round-trip
	// mode, so even the single-binary default pays (and measures) real
	// serialization.
	Transport dist.Transport
	// Workers sizes the lazily built default transport and bounds the
	// coordinator-side pattern-growth projection fan-out; <= 1 means 1.
	// It does not resize a Transport the caller provided.
	Workers int
	// Engine selects the mining strategy: DistEngineApriori (the default
	// for "") or DistEngineFPGrowth. Both produce identical results.
	Engine string
	// Retry is the coordinator's fault policy (per-call deadline, retry
	// budget, backoff); the zero value means the documented defaults.
	// Applied at the start of every Mine, so it can be changed between
	// mines but not during one.
	Retry dist.RetryPolicy
	// NoLocalFallback disables graceful degradation: with it set, losing
	// every worker fails the mine with an error wrapping
	// dist.ErrNoHealthyWorkers instead of falling back to local counting.
	NoLocalFallback bool

	hook     PassHook
	coord    *dist.Coordinator
	store    *transactions.ShardedDB
	epoch    uint64
	degraded bool
	fallback *dist.Worker
	// onStorePath remembers whether the last sync shipped store shards;
	// switching between the plain and store paths resets the coordinator,
	// since both use small-integer shard ids and a leftover plain-epoch
	// version could otherwise collide with a store version stamp and leave
	// a stale replica in place.
	onStorePath bool
}

// Name implements Miner.
func (d *Distributed) Name() string { return "Distributed" }

// SetWorkers implements WorkerSetter; it sizes the default transport, so
// it must be called before the first Mine to take effect.
func (d *Distributed) SetWorkers(n int) { d.Workers = n }

// SetPassHook implements PassObserver. The Apriori strategy emits final
// levels per pass; the FPGrowth strategy emits them in one burst at the
// end, after the merged tree is mined (pass 1 carries a nil level).
func (d *Distributed) SetPassHook(h PassHook) { d.hook = h }

// BindStore attaches the updatable store whose shard snapshots Mine
// ships. Placement and version state reset, so the next Mine re-ships
// everything and later Mines re-ship only dirty shards. Binding nil
// returns to the plain split-per-Mine mode.
func (d *Distributed) BindStore(s *transactions.ShardedDB) {
	d.store = s
	d.onStorePath = false
	if d.coord != nil {
		d.coord.Reset()
	}
}

// Coordinator returns the engine's coordinator, creating the default
// transport if none was provided — the handle tests and benchmarks use to
// read traffic stats.
func (d *Distributed) Coordinator() *dist.Coordinator {
	if d.coord == nil {
		t := d.Transport
		if t == nil {
			n := d.Workers
			if n < 1 {
				n = 1
			}
			t = dist.NewLocalTransport(n, true)
			d.Transport = t
		}
		d.coord = dist.NewCoordinator(t)
	}
	return d.coord
}

// Close releases the transport (in-process workers or RPC connections).
// The engine is not usable afterwards. Consumers that obtain the engine
// generically (core.Miners) can reach this through io.Closer; without a
// Close the lazily built default transport's worker goroutines live until
// process exit.
func (d *Distributed) Close() error {
	if d.Transport != nil {
		return d.Transport.Close()
	}
	return nil
}

// storeMatches reports whether db is a current snapshot of the bound
// store: same live length and, transaction by transaction, the same
// backing itemsets (Snapshot shares itemset headers with the store, so
// identity is a cheap pointer walk — no content comparison). A stale
// snapshot taken before mutations, or an unrelated database that merely
// matches the store's length, fails the walk and takes the plain-DB path
// instead of silently mining the store's current contents.
func (d *Distributed) storeMatches(db *transactions.DB) bool {
	if d.store == nil || d.store.Len() != db.Len() {
		return false
	}
	k := 0
	for i := 0; i < d.store.NumShards(); i++ {
		view, _ := d.store.ShardView(i)
		for _, tx := range view.Transactions {
			o := db.Transactions[k]
			k++
			if len(tx) != len(o) {
				return false
			}
			if len(tx) > 0 && &tx[0] != &o[0] {
				return false
			}
		}
	}
	return true
}

// sync ships the current shard set and returns the item universe size the
// pass-1 arrays are sized for. With a bound store of which db is a
// current snapshot (what Incremental hands a base miner), the store's
// version-stamped shards are synced and clean replicas are reused; any
// other db is split fresh under a new epoch so stale replicas can never
// leak into the counts.
func (d *Distributed) sync(ctx context.Context, db *transactions.DB) (int, error) {
	c := d.Coordinator()
	if d.storeMatches(db) {
		if !d.onStorePath {
			// Entering the store path (after a bind or a plain-path mine):
			// drop all placement/version state so every shard re-ships.
			c.Reset()
			d.onStorePath = true
		}
		payloads := make([]dist.ShardPayload, d.store.NumShards())
		for i := range payloads {
			view, version := d.store.ShardView(i)
			payloads[i] = dist.ShardPayload{ID: i, Version: version, Txs: view.Transactions}
		}
		return d.store.NumItems(), c.Sync(ctx, payloads)
	}
	// Plain DB: one contiguous shard per worker, versioned by a fresh
	// epoch per call because the db carries no version stamps of its own.
	c.Reset()
	d.onStorePath = false
	d.epoch++
	shards := db.Shards(c.Transport().NumWorkers())
	payloads := make([]dist.ShardPayload, len(shards))
	for i, sh := range shards {
		payloads[i] = dist.ShardPayload{ID: i, Version: d.epoch, Txs: sh.Transactions}
	}
	return db.NumItems(), c.Sync(ctx, payloads)
}

// Mine implements Miner.
func (d *Distributed) Mine(db *transactions.DB, minSupport float64) (*Result, error) {
	return d.MineContext(context.Background(), db, minSupport)
}

// MineContext implements ContextMiner: the coordinator's shard shipping
// and scan fan-outs all run under ctx, so cancellation unblocks mid-pass
// even while a worker call is in flight.
//
// When the whole cluster is lost (every call path has exhausted retries
// and failover, surfacing dist.ErrNoHealthyWorkers) and NoLocalFallback
// is unset, the mine degrades instead of failing: the remaining scans run
// on an in-process fallback worker holding the whole database as one
// shard — the exact per-shard counting code the workers run, so the
// result stays byte-identical — and every pass emitted from then on
// carries PassStat.Degraded. Degradation lasts for the rest of that mine;
// the next Mine tries the cluster again (and fails fast onto the fallback
// while the workers stay marked down — Coordinator.Revive clears them).
func (d *Distributed) MineContext(ctx context.Context, db *transactions.DB, minSupport float64) (*Result, error) {
	minCount, err := checkInput(db, minSupport)
	if err != nil {
		return emptyResult(), err
	}
	// Validate the engine before sync: a bad name must not pay (or
	// pollute) a full shard-shipping round first.
	switch d.Engine {
	case "", DistEngineApriori, DistEngineFPGrowth:
	default:
		return nil, fmt.Errorf("assoc: unknown distributed engine %q", d.Engine)
	}
	d.degraded, d.fallback = false, nil
	d.Coordinator().SetRetry(d.Retry)
	numItems, err := d.sync(ctx, db)
	if err != nil {
		if !d.canDegrade(err) {
			return nil, err
		}
		if derr := d.degrade(ctx, db); derr != nil {
			return nil, derr
		}
		numItems = db.NumItems()
	}
	if d.Engine == DistEngineFPGrowth {
		return d.mineFPGrowth(ctx, db, numItems, minCount)
	}
	return d.mineApriori(ctx, db, numItems, minCount)
}

// Degraded reports whether the last Mine fell back to local counting.
func (d *Distributed) Degraded() bool { return d.degraded }

// canDegrade reports whether err is the total-cluster-loss sentinel and
// local fallback is allowed.
func (d *Distributed) canDegrade(err error) bool {
	return !d.NoLocalFallback && errors.Is(err, dist.ErrNoHealthyWorkers)
}

// degrade builds the local fallback: an in-process dist.Worker holding
// the whole database as shard 0. Counting through the same Worker code
// path the cluster runs keeps the degraded result byte-identical.
func (d *Distributed) degrade(ctx context.Context, db *transactions.DB) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	w := dist.NewWorker()
	if err := w.Ship(dist.ShipArgs{Shards: []dist.ShardPayload{{ID: 0, Version: 1, Txs: db.Transactions}}}, &dist.ShipReply{}); err != nil {
		return err
	}
	d.fallback = w
	d.degraded = true
	return nil
}

// fallbackIDs is the degraded scan target: the single whole-db shard.
var fallbackIDs = []int{0}

// countItems is the pass-1 scan, remote or degraded; a cluster lost
// mid-mine degrades here and the scan reruns locally.
func (d *Distributed) countItems(ctx context.Context, db *transactions.DB, numItems int) ([]int, error) {
	if d.fallback != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var reply dist.CountsReply
		if err := d.fallback.CountItems(dist.CountItemsArgs{ShardIDs: fallbackIDs, NumItems: numItems}, &reply); err != nil {
			return nil, err
		}
		return reply.Counts, nil
	}
	counts, err := d.Coordinator().CountItems(ctx, numItems)
	if err != nil && d.canDegrade(err) {
		if derr := d.degrade(ctx, db); derr != nil {
			return nil, derr
		}
		return d.countItems(ctx, db, numItems)
	}
	return counts, err
}

// countPairs is the triangular pass-2 scan, remote or degraded.
func (d *Distributed) countPairs(ctx context.Context, db *transactions.DB, rank []int, n int) ([]int, error) {
	if d.fallback != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var reply dist.CountsReply
		if err := d.fallback.CountPairs(dist.CountPairsArgs{ShardIDs: fallbackIDs, Rank: rank, N: n}, &reply); err != nil {
			return nil, err
		}
		return reply.Counts, nil
	}
	counts, err := d.Coordinator().CountPairs(ctx, rank, n)
	if err != nil && d.canDegrade(err) {
		if derr := d.degrade(ctx, db); derr != nil {
			return nil, derr
		}
		return d.countPairs(ctx, db, rank, n)
	}
	return counts, err
}

// countCandidates is the pass-k (k >= 3) scan, remote or degraded.
func (d *Distributed) countCandidates(ctx context.Context, db *transactions.DB, k int, cands []transactions.Itemset) ([]int, error) {
	if d.fallback != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var reply dist.CountsReply
		if err := d.fallback.CountCandidates(dist.CountCandidatesArgs{ShardIDs: fallbackIDs, K: k, Candidates: cands}, &reply); err != nil {
			return nil, err
		}
		return reply.Counts, nil
	}
	counts, err := d.Coordinator().CountCandidates(ctx, k, cands)
	if err != nil && d.canDegrade(err) {
		if derr := d.degrade(ctx, db); derr != nil {
			return nil, derr
		}
		return d.countCandidates(ctx, db, k, cands)
	}
	return counts, err
}

// buildTree is the pattern-growth tree build, remote or degraded.
func (d *Distributed) buildTree(ctx context.Context, db *transactions.DB, ranks *fptree.Ranks) (*fptree.Tree, error) {
	if d.fallback != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var reply dist.TreeReply
		if err := d.fallback.BuildTree(dist.BuildTreeArgs{ShardIDs: fallbackIDs, Ranks: ranks}, &reply); err != nil {
			return nil, err
		}
		return fptree.Import(ranks, reply.Nodes)
	}
	tree, err := d.Coordinator().BuildTree(ctx, ranks)
	if err != nil && d.canDegrade(err) {
		if derr := d.degrade(ctx, db); derr != nil {
			return nil, derr
		}
		return d.buildTree(ctx, db, ranks)
	}
	return tree, err
}

// mineApriori is Apriori.Mine with every counting scan remoted through the
// coordinator (or the degraded fallback); generation and thresholding stay
// local and identical.
func (d *Distributed) mineApriori(ctx context.Context, db *transactions.DB, numItems, minCount int) (*Result, error) {
	res := &Result{MinCount: minCount, NumTx: db.Len()}

	counts, err := d.countItems(ctx, db, numItems)
	if err != nil {
		return nil, err
	}
	var level []ItemsetCount
	for item, cnt := range counts {
		if cnt >= minCount {
			level = append(level, ItemsetCount{Items: transactions.Itemset{item}, Count: cnt})
		}
	}
	res.addPass(d.hook, PassStat{K: 1, Candidates: numItems, Frequent: len(level), Degraded: d.degraded}, level)
	for k := 2; len(level) > 0; k++ {
		res.Levels = append(res.Levels, level)
		if k == 2 {
			n := len(level)
			var l2 []ItemsetCount
			if n >= 2 {
				pairCounts, err := d.countPairs(ctx, db, l1Ranks(level, numItems), n)
				if err != nil {
					return nil, err
				}
				l2 = thresholdTriangle(level, pairCounts, minCount)
			}
			res.addPass(d.hook, PassStat{K: 2, Candidates: n * (n - 1) / 2, Frequent: len(l2), Degraded: d.degraded}, l2)
			level = l2
			continue
		}
		cands := aprioriGen(itemsetsOf(level))
		if len(cands) == 0 {
			break
		}
		candCounts, err := d.countCandidates(ctx, db, k, cands)
		if err != nil {
			return nil, err
		}
		level = level[:0:0]
		for i, cand := range cands {
			if candCounts[i] >= minCount {
				level = append(level, ItemsetCount{Items: cand, Count: candCounts[i]})
			}
		}
		sortLevel(level)
		res.addPass(d.hook, PassStat{K: k, Candidates: len(cands), Frequent: len(level), Degraded: d.degraded}, level)
	}
	return res, nil
}

// mineFPGrowth distributes the pass-1 scan and the tree build, then grows
// patterns locally over the merged tree — FPGrowth.Mine with the two
// database passes remoted (or served by the degraded fallback).
func (d *Distributed) mineFPGrowth(ctx context.Context, db *transactions.DB, numItems, minCount int) (*Result, error) {
	res := &Result{MinCount: minCount, NumTx: db.Len()}

	counts, err := d.countItems(ctx, db, numItems)
	if err != nil {
		return nil, err
	}
	ranks := fptree.NewRanks(counts, minCount)
	res.addPass(d.hook, PassStat{K: 1, Candidates: numItems, Frequent: ranks.Len(), Degraded: d.degraded}, nil)
	if ranks.Len() == 0 {
		return res, nil
	}
	tree, err := d.buildTree(ctx, db, ranks)
	if err != nil {
		return nil, err
	}
	grower := &FPGrowth{Workers: d.Workers}
	perRank, err := grower.minePerRank(ctx, tree, minCount)
	if err != nil {
		return nil, err
	}
	assembleGrowthLevels(res, d.hook, perRank, d.degraded)
	return res, nil
}
