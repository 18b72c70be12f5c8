package dist

import (
	"fmt"
	"sync"

	"repro/internal/fptree"
	"repro/internal/hashtree"
	"repro/internal/transactions"
)

// Worker is the counting side of the backend: it keeps version-stamped
// shard replicas and answers count requests by scanning them into the
// repo's per-shard counting structures, returning mergeable buffers. The
// method signatures follow net/rpc conventions so one implementation
// serves both transports.
//
// A worker is safe for concurrent calls (net/rpc may interleave them), but
// the coordinator's protocol never counts a shard while re-shipping it, so
// the lock only guards the replica map, not the scans.
type Worker struct {
	mu     sync.Mutex
	shards map[int]ShardPayload
}

// NewWorker returns a worker with no replicas. Every exported method is
// net/rpc-shaped; adding a non-RPC exported method would make rpc.Register
// log a complaint on every worker startup.
func NewWorker() *Worker {
	return &Worker{shards: make(map[int]ShardPayload)}
}

// Ship installs (or replaces) shard replicas.
func (w *Worker) Ship(args ShipArgs, reply *ShipReply) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, sh := range args.Shards {
		w.shards[sh.ID] = sh
	}
	return nil
}

// replicas resolves the requested shard ids under the lock, so scans run
// on a consistent snapshot of the replica map.
func (w *Worker) replicas(ids []int) ([]ShardPayload, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]ShardPayload, 0, len(ids))
	for _, id := range ids {
		sh, ok := w.shards[id]
		if !ok {
			return nil, fmt.Errorf("%w: %d", ErrNoShard, id)
		}
		out = append(out, sh)
	}
	return out, nil
}

// CountItems runs the pass-1 scan over the requested replicas.
func (w *Worker) CountItems(args CountItemsArgs, reply *CountsReply) error {
	shards, err := w.replicas(args.ShardIDs)
	if err != nil {
		return err
	}
	counts := make([]int, args.NumItems)
	for _, sh := range shards {
		for _, tx := range sh.Txs {
			for _, item := range tx {
				if item < 0 || item >= args.NumItems {
					return fmt.Errorf("dist: shard %d: item %d outside universe %d", sh.ID, item, args.NumItems)
				}
				counts[item]++
			}
		}
	}
	reply.Counts = counts
	return nil
}

// CountPairs runs the triangular pass-2 scan over the requested replicas,
// the same arithmetic as the local engine's countTriangle.
func (w *Worker) CountPairs(args CountPairsArgs, reply *CountsReply) error {
	shards, err := w.replicas(args.ShardIDs)
	if err != nil {
		return err
	}
	n := args.N
	counts := make([]int, n*(n-1)/2)
	tri := func(i, j int) int { return i*(2*n-i-1)/2 + (j - i - 1) }
	ranks := make([]int, 0, 64)
	for _, sh := range shards {
		for _, tx := range sh.Txs {
			ranks = ranks[:0]
			for _, item := range tx {
				if item < len(args.Rank) && args.Rank[item] >= 0 {
					ranks = append(ranks, args.Rank[item])
				}
			}
			for a := 0; a < len(ranks); a++ {
				for b := a + 1; b < len(ranks); b++ {
					counts[tri(ranks[a], ranks[b])]++
				}
			}
		}
	}
	reply.Counts = counts
	return nil
}

// CountCandidates builds the request's candidate hash tree and counts
// the replicas into one private buffer, indexed like args.Candidates.
func (w *Worker) CountCandidates(args CountCandidatesArgs, reply *CountsReply) error {
	shards, err := w.replicas(args.ShardIDs)
	if err != nil {
		return err
	}
	tree, err := hashtree.Build(args.K, args.Candidates)
	if err != nil {
		return err
	}
	buf := tree.NewCountBuffer()
	for _, sh := range shards {
		for _, tx := range sh.Txs {
			tree.CountInto(tx, buf)
		}
	}
	reply.Counts = buf.Counts
	return nil
}

// BuildTree builds one FP-tree over the requested replicas under the
// shared rank table and returns its exported node pool. The build sorts
// the replicas' paths together, so the tree equals a local build over the
// same transactions whatever the shard split.
func (w *Worker) BuildTree(args BuildTreeArgs, reply *TreeReply) error {
	shards, err := w.replicas(args.ShardIDs)
	if err != nil {
		return err
	}
	n := 0
	for _, sh := range shards {
		n += len(sh.Txs)
	}
	txs := make([]transactions.Itemset, 0, n)
	for _, sh := range shards {
		txs = append(txs, sh.Txs...)
	}
	reply.Nodes = fptree.Build(txs, args.Ranks).Export()
	return nil
}
