package repro

// One testing.B benchmark per experiment of the index (`dmbench -list`,
// README "dmbench — the experiment harness"), plus the ablation benches
// for the design decisions README "Mining engines" calls out. The dmbench
// command prints the full tables; these benches give allocation-aware
// single-configuration numbers per algorithm.

import (
	"sync"
	"testing"

	"repro/internal/assoc"
	"repro/internal/cluster"
	"repro/internal/knn"
	"repro/internal/seqmine"
	"repro/internal/synth"
	"repro/internal/transactions"
	"repro/internal/tree"
)

// --- shared fixtures, built once ---

var (
	basketOnce sync.Once
	basketDB   *transactions.DB

	seqOnce sync.Once
	seqData []seqmine.Sequence

	pointsOnce sync.Once
	points     [][]float64

	gridOnce sync.Once
	gridPts  [][]float64
)

func baskets(b *testing.B) *transactions.DB {
	b.Helper()
	basketOnce.Do(func() {
		db, err := synth.Baskets(synth.TxI(10, 4, 4000, 94))
		if err != nil {
			panic(err)
		}
		basketDB = db
	})
	return basketDB
}

func sequences(b *testing.B) []seqmine.Sequence {
	b.Helper()
	seqOnce.Do(func() {
		raw, err := synth.Sequences(synth.C10T2S4I1(400, 96))
		if err != nil {
			panic(err)
		}
		seqData = seqmine.FromSynth(raw)
	})
	return seqData
}

func gaussPoints(b *testing.B) [][]float64 {
	b.Helper()
	pointsOnce.Do(func() {
		p, err := synth.GaussianMixture(synth.GaussianConfig{
			NumPoints: 800, NumCluster: 5, Dims: 2, Spread: 1, Separation: 80, Seed: 41,
		})
		if err != nil {
			panic(err)
		}
		points = p.X
	})
	return points
}

func grid(b *testing.B) [][]float64 {
	b.Helper()
	gridOnce.Do(func() {
		p, err := synth.GaussianGrid(synth.GridConfig{
			NumPoints: 20000, GridSide: 2, CentreDist: 40, Spread: 2, Seed: 98,
		})
		if err != nil {
			panic(err)
		}
		gridPts = p.X
	})
	return gridPts
}

// --- EXP-A1: miners at a fixed support ---

func benchMiner(b *testing.B, m assoc.Miner) {
	db := baskets(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Mine(db, 0.0075); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExpA1Apriori(b *testing.B)       { benchMiner(b, &assoc.Apriori{}) }
func BenchmarkExpA1FPGrowth(b *testing.B)      { benchMiner(b, &assoc.FPGrowth{}) }
func BenchmarkExpA1AprioriTid(b *testing.B)    { benchMiner(b, &assoc.AprioriTid{}) }
func BenchmarkExpA1AprioriHybrid(b *testing.B) { benchMiner(b, &assoc.AprioriHybrid{}) }
func BenchmarkExpA1AIS(b *testing.B)           { benchMiner(b, &assoc.AIS{}) }
func BenchmarkExpA1SETM(b *testing.B)          { benchMiner(b, &assoc.SETM{}) }
func BenchmarkExpA5Partition(b *testing.B)     { benchMiner(b, &assoc.Partition{NumPartitions: 4}) }
func BenchmarkExpA1DHP(b *testing.B)           { benchMiner(b, &assoc.DHP{}) }

// --- EXP-A3: scale-up is covered by dmbench; here the rule generator ---

func BenchmarkRuleGeneration(b *testing.B) {
	db := baskets(b)
	res, err := (&assoc.Apriori{}).Mine(db, 0.0075)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := assoc.GenerateRules(res, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// --- EXP-S1: sequence miners ---

func BenchmarkExpS1AprioriAll(b *testing.B) {
	data := sequences(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&seqmine.AprioriAll{}).Mine(data, 0.03); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExpS1GSP(b *testing.B) {
	data := sequences(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&seqmine.GSP{}).Mine(data, 0.03); err != nil {
			b.Fatal(err)
		}
	}
}

// --- EXP-C1: k-medoid family ---

func BenchmarkExpC1KMeans(b *testing.B) {
	pts := gaussPoints(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&cluster.KMeans{K: 5, Seed: 1}).Run(pts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExpC1PAM(b *testing.B) {
	pts := gaussPoints(b)[:300]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&cluster.PAM{K: 5}).Run(pts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExpC1CLARA(b *testing.B) {
	pts := gaussPoints(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&cluster.CLARA{K: 5, Seed: 1}).Run(pts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExpC1CLARANS(b *testing.B) {
	pts := gaussPoints(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&cluster.CLARANS{K: 5, Seed: 1}).Run(pts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- EXP-C2: DBSCAN index ablation ---

func BenchmarkExpC2DBSCANBrute(b *testing.B) {
	pts := gaussPoints(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&cluster.DBSCAN{Eps: 3, MinPts: 5}).Run(pts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExpC2DBSCANGrid(b *testing.B) {
	pts := gaussPoints(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&cluster.DBSCAN{Eps: 3, MinPts: 5, UseIndex: true}).Run(pts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- EXP-C3: BIRCH vs k-means at 20K points ---

func BenchmarkExpC3BIRCH(b *testing.B) {
	pts := grid(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&cluster.BIRCH{K: 4, MaxLeaves: 256, Seed: 1}).Run(pts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExpC3KMeans(b *testing.B) {
	pts := grid(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&cluster.KMeans{K: 4, Seed: 1}).Run(pts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- EXP-C4: hierarchical ---

func BenchmarkExpC4Hierarchical(b *testing.B) {
	pts := gaussPoints(b)[:300]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&cluster.Hierarchical{Linkage: cluster.WardLinkage}).Run(pts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- EXP-T1/T3: classifiers ---

func BenchmarkExpT3TreeBuildF1(b *testing.B) { benchTreeBuild(b, 1) }
func BenchmarkExpT3TreeBuildF7(b *testing.B) { benchTreeBuild(b, 7) }

func benchTreeBuild(b *testing.B, fn int) {
	tbl, err := synth.Classify(synth.ClassifyConfig{NumRows: 5000, Function: fn, Seed: int64(4000 + fn)})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.Build(tbl, tree.Config{Criterion: tree.GainRatio, MinLeaf: 5}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- EXP-K1: kNN query backends ---

func kdFixture(b *testing.B) (*knn.KDTree, [][]float64, [][]float64) {
	b.Helper()
	p, err := synth.GaussianMixture(synth.GaussianConfig{
		NumPoints: 10500, NumCluster: 8, Dims: 2, Spread: 3, Separation: 100, Seed: 55,
	})
	if err != nil {
		b.Fatal(err)
	}
	pts, qs := p.X[:10000], p.X[10000:]
	tr, err := knn.NewKDTree(pts)
	if err != nil {
		b.Fatal(err)
	}
	return tr, pts, qs
}

func BenchmarkExpK1KDTree(b *testing.B) {
	tr, _, qs := kdFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.KNearest(qs[i%len(qs)], 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExpK1Brute(b *testing.B) {
	_, pts, qs := kdFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := knn.BruteKNearest(pts, qs[i%len(qs)], 10); err != nil {
			b.Fatal(err)
		}
	}
}

// --- EXP-P1: count-distribution parallelism and vertical layouts ---

// Serial vs parallel counting for the level-wise miners. On multi-core
// hosts the W4 variants should approach the core count; on a single-CPU
// host they measure the engine's overhead instead.
func BenchmarkParallelAprioriW1(b *testing.B) { benchMiner(b, &assoc.Apriori{Workers: 1}) }
func BenchmarkParallelAprioriW2(b *testing.B) { benchMiner(b, &assoc.Apriori{Workers: 2}) }
func BenchmarkParallelAprioriW4(b *testing.B) { benchMiner(b, &assoc.Apriori{Workers: 4}) }
func BenchmarkParallelAprioriW8(b *testing.B) { benchMiner(b, &assoc.Apriori{Workers: 8}) }
func BenchmarkParallelDHPW4(b *testing.B)     { benchMiner(b, &assoc.DHP{Workers: 4}) }
func BenchmarkParallelPartitionW4(b *testing.B) {
	benchMiner(b, &assoc.Partition{NumPartitions: 4, Workers: 4})
}

// --- EXP-P3: pattern growth (sorted-path FP-tree + parallel projections) ---

// FPGrowth at the benchmark support and at a low support where candidate
// generation explodes; W4 exercises the parallel pass-1 count and the
// per-item projection fan-out.
func BenchmarkFPGrowthW1(b *testing.B) { benchMiner(b, &assoc.FPGrowth{Workers: 1}) }
func BenchmarkFPGrowthW4(b *testing.B) { benchMiner(b, &assoc.FPGrowth{Workers: 4}) }

// benchDistributed measures the coordinator/worker backend over the
// in-process gob transport — the shipping + serialization + merge overhead
// EXP-P4 tracks, as an allocation-aware single configuration.
func benchDistributed(b *testing.B, engine string, workers int) {
	db := baskets(b)
	d := &assoc.Distributed{Engine: engine, Workers: workers}
	defer d.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Mine(db, 0.0075); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDistributedAprioriW1(b *testing.B)  { benchDistributed(b, assoc.DistEngineApriori, 1) }
func BenchmarkDistributedAprioriW4(b *testing.B)  { benchDistributed(b, assoc.DistEngineApriori, 4) }
func BenchmarkDistributedFPGrowthW4(b *testing.B) { benchDistributed(b, assoc.DistEngineFPGrowth, 4) }

func benchMinerLowSupport(b *testing.B, m assoc.Miner) {
	db := baskets(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Mine(db, 0.001); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLowSupportApriori(b *testing.B)  { benchMinerLowSupport(b, &assoc.Apriori{}) }
func BenchmarkLowSupportFPGrowth(b *testing.B) { benchMinerLowSupport(b, &assoc.FPGrowth{}) }

// Eclat vertical-layout ablation: sorted tid-list merging vs bitset
// word-AND + popcount, on the sparse benchmark fixture and on a dense
// small-universe one where bitsets shine.
func denseBaskets(b *testing.B) *transactions.DB {
	b.Helper()
	denseOnce.Do(func() {
		c := synth.TxI(10, 4, 4000, 94)
		c.NumItems = 100
		c.NumPatterns = 200
		db, err := synth.Baskets(c)
		if err != nil {
			panic(err)
		}
		denseDB = db
	})
	return denseDB
}

var (
	denseOnce sync.Once
	denseDB   *transactions.DB
)

func benchEclat(b *testing.B, db *transactions.DB, layout assoc.TidLayout) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&assoc.Eclat{Layout: layout}).Mine(db, 0.0075); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEclatTIDListSparse(b *testing.B) { benchEclat(b, baskets(b), assoc.LayoutTIDList) }
func BenchmarkEclatBitsetSparse(b *testing.B)  { benchEclat(b, baskets(b), assoc.LayoutBitset) }
func BenchmarkEclatTIDListDense(b *testing.B)  { benchEclat(b, denseBaskets(b), assoc.LayoutTIDList) }
func BenchmarkEclatBitsetDense(b *testing.B)   { benchEclat(b, denseBaskets(b), assoc.LayoutBitset) }

// Micro-ablation: one intersection of two dense tid-sets in each layout.
func intersectFixture() (a, bb []int, ba, bbBits *transactions.Bitset) {
	const n = 100000
	a = make([]int, 0, n/8)
	bb = make([]int, 0, n/8)
	for i := 0; i < n; i++ {
		if i%8 == 0 {
			a = append(a, i)
		}
		if i%8 == 2 || i%16 == 0 {
			bb = append(bb, i)
		}
	}
	return a, bb, transactions.BitsetFromTIDs(a, n), transactions.BitsetFromTIDs(bb, n)
}

func BenchmarkIntersectTIDList(b *testing.B) {
	a, bb, _, _ := intersectFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		transactions.IntersectSorted(a, bb)
	}
}

func BenchmarkIntersectBitset(b *testing.B) {
	_, _, ba, bbBits := intersectFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		transactions.AndBitset(ba, bbBits)
	}
}

// --- ShardedDB hot path: Append / DeleteAt / incremental Maintain ---

// BenchmarkShardedDBAppend measures the per-transaction append cost
// (normalisation + tail-shard fill + version bump), amortised over shard
// openings.
func BenchmarkShardedDBAppend(b *testing.B) {
	pool := baskets(b).Transactions
	store := transactions.NewShardedDB(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := store.Append(pool[i%len(pool)]...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedDBDeleteAt measures delete + re-append pairs against a
// steady-state store, so shard compaction cost is visible without the
// store draining or growing across iterations.
func BenchmarkShardedDBDeleteAt(b *testing.B) {
	pool := baskets(b).Transactions
	store := transactions.NewShardedDB(1024)
	for _, tx := range pool {
		if err := store.Append(tx...); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, err := store.DeleteAt((i * 2654435761) % store.Len())
		if err != nil {
			b.Fatal(err)
		}
		if err := store.Append(tx...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrementalMaintain10pct measures Maintain with ~10% of the
// shards dirty per step: each iteration deletes a clustered handful from
// one victim shard and re-appends them at the tail (dirtying the victim
// plus the tail shard out of ~31), then maintains. The re-appended
// transactions keep the distribution stationary so steps stay on the
// incremental path rather than border-crossing.
func BenchmarkIncrementalMaintain10pct(b *testing.B) {
	pool := baskets(b).Transactions
	store := transactions.NewShardedDB(128) // D4000 -> ~32 shards
	for _, tx := range pool {
		if err := store.Append(tx...); err != nil {
			b.Fatal(err)
		}
	}
	inc := &assoc.Incremental{}
	if _, _, err := inc.Attach(store, 0.02); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		victim := (i * 7) % (store.NumShards() - 1)
		lo := victim * store.ShardCap()
		for d := 0; d < 8; d++ {
			tid := lo
			if tid >= store.Len() {
				tid = store.Len() - 1
			}
			tx, err := store.DeleteAt(tid)
			if err != nil {
				b.Fatal(err)
			}
			if err := store.Append(tx...); err != nil {
				b.Fatal(err)
			}
		}
		if _, _, err := inc.Maintain(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (design decisions from README "Mining engines") ---

// Hash tree vs map-based candidate counting inside Apriori.
func BenchmarkAblationCountHashTree(b *testing.B) {
	benchMiner(b, &assoc.Apriori{Strategy: assoc.CountHashTree})
}

func BenchmarkAblationCountMap(b *testing.B) {
	benchMiner(b, &assoc.Apriori{Strategy: assoc.CountMap})
}

// k-means seeding strategies.
func BenchmarkAblationSeedForgy(b *testing.B) {
	pts := gaussPoints(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&cluster.KMeans{K: 5, Seed: 1, Seeding: cluster.SeedForgy}).Run(pts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSeedRandomPartition(b *testing.B) {
	pts := gaussPoints(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&cluster.KMeans{K: 5, Seed: 1, Seeding: cluster.SeedRandomPartition}).Run(pts); err != nil {
			b.Fatal(err)
		}
	}
}

// k-d tree leaf sizes.
func BenchmarkAblationKDLeaf1(b *testing.B)  { benchKDLeaf(b, 1) }
func BenchmarkAblationKDLeaf16(b *testing.B) { benchKDLeaf(b, 16) }
func BenchmarkAblationKDLeaf64(b *testing.B) { benchKDLeaf(b, 64) }

func benchKDLeaf(b *testing.B, leaf int) {
	p, err := synth.GaussianMixture(synth.GaussianConfig{
		NumPoints: 10500, NumCluster: 8, Dims: 2, Spread: 3, Separation: 100, Seed: 55,
	})
	if err != nil {
		b.Fatal(err)
	}
	pts, qs := p.X[:10000], p.X[10000:]
	tr, err := knn.NewKDTreeLeaf(pts, leaf)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.KNearest(qs[i%len(qs)], 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BIRCH threshold/branching trade-off.
func BenchmarkAblationBIRCHTightLeaves(b *testing.B) { benchBIRCH(b, 64) }
func BenchmarkAblationBIRCHLooseLeaves(b *testing.B) { benchBIRCH(b, 1024) }

func benchBIRCH(b *testing.B, maxLeaves int) {
	pts := grid(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&cluster.BIRCH{K: 4, MaxLeaves: maxLeaves, Seed: 1}).Run(pts); err != nil {
			b.Fatal(err)
		}
	}
}
