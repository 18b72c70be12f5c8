package assoc

// The count-distribution engine shared by the level-wise miners.
//
// Every support-counting pass has the same shape: scan the transactions,
// accumulate counts into some structure, threshold. Count distribution
// (the classic parallelisation of Apriori) splits the database into
// contiguous shards, gives each worker a private copy of the counters,
// and merges the copies after the scan — no locks on the hot path, and
// the merged result is bit-identical to the serial scan because integer
// addition is commutative and the shards tile the database exactly.
//
// The helpers here are the per-structure instantiations of that scheme:
// flat item counters (pass 1), the triangular pair array (pass 2), the
// candidate hash tree (pass 3+), and the candidate-index map counter used
// by Partition's global phase. Miners opt in through a Workers option;
// workers <= 1 runs the identical scan inline with no goroutines.
//
// Every helper takes a context and honours cancellation: scan loops poll
// ctx every ctxStride transactions and bail out early, workers drain
// through the same poll (no goroutine outlives its helper call), and the
// helper returns ctx.Err() instead of partial counts. Under
// context.Background() the poll is a nil check per stride — free.

import (
	"context"
	"sync"

	"repro/internal/hashtree"
	"repro/internal/transactions"
)

// WorkerSetter is implemented by the miners that support count-distribution
// parallelism; the CLIs use it to apply a -workers flag uniformly.
type WorkerSetter interface {
	SetWorkers(n int)
}

// ctxStride is how many transactions a counting scan processes between
// context polls. Cancellation is therefore detected within one stride per
// worker, while the poll cost is amortised to nothing on the hot path.
const ctxStride = 1024

// forEachShard runs fn once per shard on its own goroutine (at most
// workers of them) and waits for all of them. The shard index, always
// below the workers cap, lets fn address a private counter buffer.
// workers <= 1 calls fn inline on a single whole-database shard. The
// returned error is ctx.Err() observed after every worker has exited, so
// a cancelled scan surfaces the cancellation instead of partial counts
// and never leaks a goroutine.
func forEachShard(ctx context.Context, db *transactions.DB, workers int, fn func(shard int, sh transactions.Shard)) error {
	if workers <= 1 {
		fn(0, transactions.Shard{Transactions: db.Transactions})
		return ctx.Err()
	}
	var wg sync.WaitGroup
	for i, sh := range db.Shards(workers) {
		wg.Add(1)
		go func(i int, sh transactions.Shard) {
			defer wg.Done()
			fn(i, sh)
		}(i, sh)
	}
	wg.Wait()
	return ctx.Err()
}

// countShardedInts is the engine's common case: scan fills a private
// []int counter of length n from one shard; the per-shard counters are
// merged by addition. workers <= 1 scans the whole database inline. The
// scan callback is responsible for polling ctx (use ctxStride).
func countShardedInts(ctx context.Context, db *transactions.DB, workers, n int, scan func(sh transactions.Shard, counts []int)) ([]int, error) {
	if workers <= 1 {
		counts := make([]int, n)
		scan(transactions.Shard{Transactions: db.Transactions}, counts)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return counts, nil
	}
	// Sized to workers, not the (possibly smaller) shard count; nil tails
	// are no-ops for mergeCounts.
	parts := make([][]int, workers)
	if err := forEachShard(ctx, db, workers, func(shard int, sh transactions.Shard) {
		counts := make([]int, n)
		scan(sh, counts)
		parts[shard] = counts
	}); err != nil {
		return nil, err
	}
	return mergeCounts(parts, n), nil
}

// countItems returns per-item transaction-occurrence counts (the pass-1
// scan), distributed across workers.
func countItems(ctx context.Context, db *transactions.DB, workers int) ([]int, error) {
	return countShardedInts(ctx, db, workers, db.NumItems(), func(sh transactions.Shard, counts []int) {
		for off, tx := range sh.Transactions {
			if off%ctxStride == 0 && ctx.Err() != nil {
				return
			}
			for _, item := range tx {
				counts[item]++
			}
		}
	})
}

// mergeCounts sums per-worker count arrays into one.
func mergeCounts(parts [][]int, n int) []int {
	out := make([]int, n)
	for _, p := range parts {
		for i, c := range p {
			out[i] += c
		}
	}
	return out
}

// frequentOneWorkers is frequentOne with the scan distributed.
func frequentOneWorkers(ctx context.Context, db *transactions.DB, minCount, workers int) ([]ItemsetCount, error) {
	counts, err := countItems(ctx, db, workers)
	if err != nil {
		return nil, err
	}
	var out []ItemsetCount
	for item, c := range counts {
		if c >= minCount {
			out = append(out, ItemsetCount{Items: transactions.Itemset{item}, Count: c})
		}
	}
	return out, nil
}

// countTree scans the database through a candidate hash tree and returns
// the counts indexed by candidate. Each worker counts its shard into a
// private hashtree.CountBuffer (the tree itself is only read); the
// buffers merge afterwards.
func countTree(ctx context.Context, db *transactions.DB, tree *hashtree.Tree, workers int) ([]int, error) {
	parts := make([][]int, max(workers, 1))
	if err := forEachShard(ctx, db, workers, func(shard int, sh transactions.Shard) {
		buf := tree.NewCountBuffer()
		for off, tx := range sh.Transactions {
			if off%ctxStride == 0 && ctx.Err() != nil {
				return
			}
			tree.CountInto(tx, buf)
		}
		parts[shard] = buf.Counts
	}); err != nil {
		return nil, err
	}
	return mergeCounts(parts, tree.Len()), nil
}

// countTriangle runs the pass-2 triangular pair scan: rank maps item id to
// L1 rank (-1 for infrequent items), and the result is the merged
// n*(n-1)/2 triangular count array over ranks.
func countTriangle(ctx context.Context, db *transactions.DB, rank []int, n, workers int) ([]int, error) {
	scan := func(txs []transactions.Itemset, counts []int) {
		tri := func(i, j int) int { return i*(2*n-i-1)/2 + (j - i - 1) }
		ranks := make([]int, 0, 64)
		for off, tx := range txs {
			if off%ctxStride == 0 && ctx.Err() != nil {
				return
			}
			ranks = ranks[:0]
			for _, item := range tx {
				if r := rank[item]; r >= 0 {
					ranks = append(ranks, r)
				}
			}
			for a := 0; a < len(ranks); a++ {
				for b := a + 1; b < len(ranks); b++ {
					counts[tri(ranks[a], ranks[b])]++
				}
			}
		}
	}
	return countShardedInts(ctx, db, workers, n*(n-1)/2, func(sh transactions.Shard, counts []int) {
		scan(sh.Transactions, counts)
	})
}

// countCandidatesDirect counts each candidate's support by direct subset
// tests / subset enumeration (the map strategy), returning counts indexed
// like cands. The per-transaction strategy choice depends only on the
// transaction, so sharding does not change which branch runs for a given
// transaction and the merged counts equal the serial scan's.
func countCandidatesDirect(ctx context.Context, db *transactions.DB, cands []transactions.Itemset, k, workers int) ([]int, error) {
	idx := make(map[string]int, len(cands))
	for i, c := range cands {
		idx[c.Key()] = i
	}
	scan := func(txs []transactions.Itemset, counts []int) {
		for off, tx := range txs {
			if off%ctxStride == 0 && ctx.Err() != nil {
				return
			}
			if len(tx) < k {
				continue
			}
			if choose(len(tx), k) <= len(cands) {
				forEachSubset(tx, k, func(sub transactions.Itemset) {
					if i, ok := idx[sub.Key()]; ok {
						counts[i]++
					}
				})
			} else {
				for i, c := range cands {
					if tx.ContainsAll(c) {
						counts[i]++
					}
				}
			}
		}
	}
	return countShardedInts(ctx, db, workers, len(cands), func(sh transactions.Shard, counts []int) {
		scan(sh.Transactions, counts)
	})
}
