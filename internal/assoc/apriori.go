package assoc

import (
	"context"
	"sort"

	"repro/internal/hashtree"
	"repro/internal/transactions"
)

// CountStrategy selects the candidate-counting data structure used by
// Apriori. The hash tree is the paper's structure; the map counter is a
// simpler alternative kept for the ablation benchmarks.
type CountStrategy int

const (
	// CountHashTree counts candidates with the VLDB'94 hash tree.
	CountHashTree CountStrategy = iota
	// CountMap counts candidates by enumerating each transaction's
	// k-subsets into a hash map. Exponential in transaction size for
	// large k, but cheap for small candidate sets.
	CountMap
)

// Apriori is the level-wise miner of Agrawal & Srikant (VLDB'94).
type Apriori struct {
	// Strategy selects the counting structure; zero value is the paper's
	// hash tree, hashed by exact item rank (see internal/hashtree).
	Strategy CountStrategy
	// Workers distributes every counting scan across this many goroutines
	// (count distribution: private per-worker counters over contiguous
	// database shards, merged after the pass). Values <= 1 run serially;
	// results are identical either way.
	Workers int

	hook PassHook
}

// Name implements Miner.
func (a *Apriori) Name() string { return "Apriori" }

// SetWorkers implements WorkerSetter.
func (a *Apriori) SetWorkers(n int) { a.Workers = n }

// SetPassHook implements PassObserver. Every emitted level is final.
func (a *Apriori) SetPassHook(h PassHook) { a.hook = h }

// Mine implements Miner.
func (a *Apriori) Mine(db *transactions.DB, minSupport float64) (*Result, error) {
	return a.MineContext(context.Background(), db, minSupport)
}

// MineContext implements ContextMiner.
func (a *Apriori) MineContext(ctx context.Context, db *transactions.DB, minSupport float64) (*Result, error) {
	minCount, err := checkInput(db, minSupport)
	if err != nil {
		return emptyResult(), err
	}
	res := &Result{MinCount: minCount, NumTx: db.Len()}

	level, err := frequentOneWorkers(ctx, db, minCount, a.Workers)
	if err != nil {
		return nil, err
	}
	res.addPass(a.hook, PassStat{K: 1, Candidates: db.NumItems(), Frequent: len(level)}, level)
	for k := 2; len(level) > 0; k++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res.Levels = append(res.Levels, level)
		if k == 2 && a.Strategy == CountHashTree {
			// Pass-2 special case from the paper: C2 is the full join of
			// L1, so candidates are counted in a triangular array indexed
			// by L1 rank — no tree needed.
			nCands := len(level) * (len(level) - 1) / 2
			level, err = countPairsTriangular(ctx, db, level, minCount, a.Workers)
			if err != nil {
				return nil, err
			}
			res.addPass(a.hook, PassStat{K: 2, Candidates: nCands, Frequent: len(level)}, level)
			continue
		}
		cands := aprioriGen(itemsetsOf(level))
		if len(cands) == 0 {
			break
		}
		var counted []ItemsetCount
		if a.Strategy == CountMap {
			counted, err = countWithMapWorkers(ctx, db, cands, k, a.Workers)
		} else {
			counted, err = a.countWithHashTree(ctx, db, cands, k)
		}
		if err != nil {
			return nil, err
		}
		level = level[:0:0]
		for _, ic := range counted {
			if ic.Count >= minCount {
				level = append(level, ic)
			}
		}
		sortLevel(level)
		res.addPass(a.hook, PassStat{K: k, Candidates: len(cands), Frequent: len(level)}, level)
	}
	return res, nil
}

// countPairsTriangular counts every pair of frequent items with a
// triangular array over L1 ranks — the VLDB'94 second-pass optimisation.
// l1 is sorted by item id, so emitted pairs are already lexicographic.
// The scan is distributed across workers (each merges into a private
// triangle) when workers > 1.
func countPairsTriangular(ctx context.Context, db *transactions.DB, l1 []ItemsetCount, minCount, workers int) ([]ItemsetCount, error) {
	n := len(l1)
	if n < 2 {
		return nil, ctx.Err()
	}
	counts, err := countTriangle(ctx, db, l1Ranks(l1, db.NumItems()), n, workers)
	if err != nil {
		return nil, err
	}
	return thresholdTriangle(l1, counts, minCount), nil
}

// l1Ranks builds the item-id -> L1-rank map of the triangular pass-2 scan
// (-1 marks infrequent items). l1 is in item order, as frequentOne emits.
func l1Ranks(l1 []ItemsetCount, numItems int) []int {
	rank := make([]int, numItems)
	for i := range rank {
		rank[i] = -1
	}
	for r, ic := range l1 {
		rank[ic.Items[0]] = r
	}
	return rank
}

// thresholdTriangle filters a merged triangular pair-count array to the
// frequent pairs, emitted in lexicographic order. It is shared by the
// local and the distributed pass-2 paths, so thresholding cannot diverge
// between them.
func thresholdTriangle(l1 []ItemsetCount, counts []int, minCount int) []ItemsetCount {
	n := len(l1)
	tri := func(i, j int) int { return i*(2*n-i-1)/2 + (j - i - 1) }
	var out []ItemsetCount
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if c := counts[tri(i, j)]; c >= minCount {
				out = append(out, ItemsetCount{
					Items: transactions.Itemset{l1[i].Items[0], l1[j].Items[0]},
					Count: c,
				})
			}
		}
	}
	return out
}

// countWithHashTree counts cands through one candidate hash tree.
func (a *Apriori) countWithHashTree(ctx context.Context, db *transactions.DB, cands []transactions.Itemset, k int) ([]ItemsetCount, error) {
	tree, err := hashtree.Build(k, cands)
	if err != nil {
		return nil, err
	}
	counts, err := countTree(ctx, db, tree, a.Workers)
	if err != nil {
		return nil, err
	}
	out := make([]ItemsetCount, len(cands))
	for i, c := range cands {
		out[i] = ItemsetCount{Items: c, Count: counts[i]}
	}
	return out, nil
}

// countWithMap counts candidates by direct subset checks against an index
// of candidate keys. To avoid enumerating all k-subsets of long
// transactions it checks each candidate against each transaction when the
// candidate set is small, and otherwise enumerates transaction subsets.
func countWithMap(ctx context.Context, db *transactions.DB, cands []transactions.Itemset, k int) ([]ItemsetCount, error) {
	return countWithMapWorkers(ctx, db, cands, k, 1)
}

// countWithMapWorkers is countWithMap with the scan distributed across
// workers via per-worker count arrays indexed by candidate rank.
func countWithMapWorkers(ctx context.Context, db *transactions.DB, cands []transactions.Itemset, k, workers int) ([]ItemsetCount, error) {
	counts, err := countCandidatesDirect(ctx, db, cands, k, workers)
	if err != nil {
		return nil, err
	}
	out := make([]ItemsetCount, len(cands))
	for i, c := range cands {
		out[i] = ItemsetCount{Items: c, Count: counts[i]}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Items.Compare(out[j].Items) < 0 })
	return out, nil
}

// choose returns C(n, k) saturating at a large bound to avoid overflow.
func choose(n, k int) int {
	if k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	c := 1
	for i := 0; i < k; i++ {
		c = c * (n - i) / (i + 1)
		if c > 1<<30 {
			return 1 << 30
		}
	}
	return c
}

// forEachSubset calls fn for every k-subset of sorted set s. The callback
// receives a shared buffer; it must not retain it.
func forEachSubset(s transactions.Itemset, k int, fn func(transactions.Itemset)) {
	buf := make(transactions.Itemset, k)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == k {
			fn(buf)
			return
		}
		for i := start; i <= len(s)-(k-depth); i++ {
			buf[depth] = s[i]
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
}
