// Package fptree implements the pattern-growth substrate of the FP-growth
// miner (Han, Pei & Yin, SIGMOD 2000 — the candidate-free successor of the
// level-wise miners this repo reproduces from the SIGMOD'96 tutorial): a
// pooled-node FP-tree with header tables over support-descending item
// ranks.
//
// The package is laid out so that building and projecting touch memory
// in order:
//
//   - Build: each transaction's frequent items become an ascending rank
//     path in one flat arena. The paths are sorted lexicographically and
//     inserted in that order, each extending the previous path's node
//     stack from their longest common prefix, so no child list is ever
//     searched and the node pool comes out in depth-first preorder, sized
//     once from the arena length. The tree depends only on the multiset
//     of paths: shuffled or re-split input builds the same pool.
//   - Layout: nodes live in two parallel pooled slices indexed alike —
//     8-byte {parent, rank} links, read by every ancestor walk, and the
//     {child, sibling, next, count} body. Links are int32 indices: no
//     per-node allocations, no pointer chasing across the heap.
//   - Project: mining grows patterns by projecting a rank's conditional
//     pattern base (the prefix paths of its header chain) into a pruned
//     conditional tree. One ancestor walk per chain node both counts the
//     ranks and records the prefix into Scratch-owned flat buffers; the
//     filter-and-insert pass reads those buffers instead of walking the
//     tree again. Scratch recycles count arrays, path buffers and whole
//     trees across the recursion. Projection never rescans the database;
//     every conditional count is an exact support.
//   - Merge, Export and Import: the distributed backend ships each
//     worker's tree as its flat node pool and merges the imported trees by
//     path-wise integer addition, which is commutative, so the merged
//     counts are bit-identical to one build over all the transactions.
//
// internal/assoc's FPGrowth drives the recursion (single-path shortcut,
// per-item fan-out across workers) and assembles the Result.
package fptree

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/transactions"
)

// Ranks fixes the item order every FP-tree over one database shares:
// frequent items get dense ranks 0,1,2,… in support-descending order
// (ties broken by ascending item id, so the order is deterministic).
// Transactions are inserted most-frequent-first, which maximises prefix
// sharing — the compression argument of the FP-tree paper.
type Ranks struct {
	// OfItem maps an item id to its rank; -1 marks infrequent items.
	OfItem []int32
	// Items maps a rank back to its item id.
	Items []int32
	// Counts holds each rank's global support, descending.
	Counts []int
}

// NewRanks builds the rank table from per-item support counts (indexed by
// item id, as produced by a pass-1 scan) and the absolute support floor.
func NewRanks(counts []int, minCount int) *Ranks {
	r := &Ranks{OfItem: make([]int32, len(counts))}
	for i := range r.OfItem {
		r.OfItem[i] = -1
	}
	order := make([]int32, 0, len(counts))
	for item, c := range counts {
		if c >= minCount {
			order = append(order, int32(item))
		}
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if counts[a] != counts[b] {
			return counts[a] > counts[b]
		}
		return a < b
	})
	r.Items = order
	r.Counts = make([]int, len(order))
	for rk, item := range order {
		r.OfItem[item] = int32(rk)
		r.Counts[rk] = counts[item]
	}
	return r
}

// Len returns the number of ranked (frequent) items.
func (r *Ranks) Len() int { return len(r.Items) }

// link is the upward half of an FP-tree node: its item rank and its
// parent's pool index. Links live in their own slice, parallel to the
// node pool, so the ancestor walks of projection read 8-byte entries —
// eight to a cache line — instead of whole nodes.
type link struct {
	parent int32 // parent node, 0 for depth-1 nodes
	rank   int32 // item rank; unused on the root
}

// node is the downward and chain half of an FP-tree node. Its links are
// indices into the owning tree's pool; 0 is the null link (node 0 is the
// root, which is never a child, sibling or header-chain member).
type node struct {
	child   int32 // first child, 0 if leaf
	sibling int32 // next sibling in the parent's child list
	next    int32 // next node of the same rank (header chain)
	count   int   // transactions whose rank path runs through this node
}

// Tree is a pooled-node FP-tree: nodes live in two parallel slices (links
// and nodes, indexed alike), the header table chains all nodes of a rank,
// and totals accumulates each rank's support within the tree. All trees
// over the same database share one *Ranks.
type Tree struct {
	ranks  *Ranks
	links  []link  // links[0] is the root's (unused) entry
	nodes  []node  // nodes[0] is the root
	heads  []int32 // rank -> first node of the header chain, 0 if absent
	totals []int   // rank -> summed node counts (the rank's support here)
	// present lists the ranks with nonzero totals (first-touch order until
	// Present sorts it), so mining a conditional tree iterates only the few
	// ranks of its pattern base instead of the whole rank universe.
	present []int32
	// rootIdx maps rank -> depth-1 child of the root (0 if absent). The
	// root is the one node whose child list grows towards |L1| siblings —
	// every inserted path starts there — so it gets a direct index while
	// deeper nodes keep the short sibling scan.
	rootIdx []int32
}

// New returns an empty tree over the given rank table.
func New(r *Ranks) *Tree {
	return &Tree{
		ranks:   r,
		links:   make([]link, 1, 64),
		nodes:   make([]node, 1, 64),
		heads:   make([]int32, r.Len()),
		totals:  make([]int, r.Len()),
		rootIdx: make([]int32, r.Len()),
	}
}

// Build constructs the FP-tree of txs under the rank table. Each
// transaction's ranked items become an ascending rank path in one flat
// arena; the paths are sorted lexicographically and inserted in that
// order, each one extending the previous path's node stack from their
// longest common prefix. No child list is ever searched, the node pool
// comes out in depth-first preorder, and it is sized once from the arena
// length. The tree therefore depends only on the multiset of paths: any
// order or split of the same transactions builds the same pool.
func Build(txs []transactions.Itemset, r *Ranks) *Tree {
	paths, offs := encodePaths(txs, r)
	order := make([]int32, 0, len(txs))
	longest := 0
	for i := range txs {
		if n := offs[i+1] - offs[i]; n > 0 {
			order = append(order, int32(i))
			longest = max(longest, n)
		}
	}
	slices.SortFunc(order, func(a, b int32) int {
		return slices.Compare(paths[offs[a]:offs[a+1]], paths[offs[b]:offs[b+1]])
	})
	t := &Tree{
		ranks:   r,
		links:   make([]link, len(paths)+1),
		nodes:   make([]node, len(paths)+1),
		heads:   make([]int32, r.Len()),
		totals:  make([]int, r.Len()),
		rootIdx: make([]int32, r.Len()),
	}
	t.insertSorted(paths, offs, order, make([]int32, r.Len()), make([]int32, 0, longest))
	for _, rk := range paths {
		t.totals[rk]++
	}
	for rk, c := range t.totals {
		if c > 0 {
			t.present = append(t.present, int32(rk))
		}
	}
	return t
}

// encodePaths filters every transaction to its ranked items in ascending
// rank order (most frequent first) and lays the paths end to end:
// transaction i's path is paths[offs[i]:offs[i+1]]. Items beyond the rank
// table (seen only after the ranks froze) are skipped. A counting pass
// sizes the arena exactly, so neither slice grows.
func encodePaths(txs []transactions.Itemset, r *Ranks) (paths []int32, offs []int) {
	offs = make([]int, len(txs)+1)
	for i, tx := range txs {
		n := 0
		for _, item := range tx {
			if item < len(r.OfItem) && r.OfItem[item] >= 0 {
				n++
			}
		}
		offs[i+1] = offs[i] + n
	}
	paths = make([]int32, offs[len(txs)])
	for i, tx := range txs {
		path := paths[offs[i]:offs[i]:offs[i+1]]
		for _, item := range tx {
			if item < len(r.OfItem) {
				if rk := r.OfItem[item]; rk >= 0 {
					path = append(path, rk)
				}
			}
		}
		// Insertion sort: transactions are short and an itemset never
		// repeats an item, so this beats a general sort per path.
		for a := 1; a < len(path); a++ {
			for b := a; b > 0 && path[b] < path[b-1]; b-- {
				path[b], path[b-1] = path[b-1], path[b]
			}
		}
	}
	return paths, offs
}

// insertSorted inserts the arena paths in the given (lexicographically
// sorted) order into the empty, pre-sized pool: the common prefix with the
// previous path only gains a count, and the remainder becomes fresh nodes
// appended in preorder, each linked at the head of its parent's child
// list and at the tail of its rank's header chain. tails is a zeroed
// per-rank scratch and stack an empty buffer with room for the longest
// path. The pool holds one slot per arena entry, the most nodes the paths
// can create, and is trimmed to the nodes used.
//
//invcheck:hotpath
func (t *Tree) insertSorted(paths []int32, offs []int, order, tails, stack []int32) {
	var prev []int32
	used := int32(1)
	for _, pi := range order {
		path := paths[offs[pi]:offs[pi+1]]
		l := 0
		for l < len(prev) && l < len(path) && prev[l] == path[l] {
			l++
		}
		for _, n := range stack[:l] {
			t.nodes[n].count++
		}
		stack = stack[:l]
		parent := int32(0)
		if l > 0 {
			parent = stack[l-1]
		}
		for _, rk := range path[l:] {
			n := used
			used++
			t.links[n] = link{parent: parent, rank: rk}
			t.nodes[n] = node{sibling: t.nodes[parent].child, count: 1}
			t.nodes[parent].child = n
			if tails[rk] == 0 {
				t.heads[rk] = n
			} else {
				t.nodes[tails[rk]].next = n
			}
			tails[rk] = n
			if parent == 0 {
				t.rootIdx[rk] = n
			}
			stack = stack[:len(stack)+1]
			stack[len(stack)-1] = n
			parent = n
		}
		prev = path
	}
	t.links = t.links[:used]
	t.nodes = t.nodes[:used]
}

// Ranks returns the shared rank table.
func (t *Tree) Ranks() *Ranks { return t.ranks }

// Total returns the summed count of rank's nodes — the exact support of
// the rank's item within the (conditional) database this tree represents.
func (t *Tree) Total(rank int32) int { return t.totals[rank] }

// Empty reports whether the tree holds no transactions.
func (t *Tree) Empty() bool { return len(t.nodes) == 1 }

// NumNodes returns the number of item nodes (the root is not counted).
func (t *Tree) NumNodes() int { return len(t.nodes) - 1 }

// Insert adds one rank path (ascending ranks, i.e. most frequent first)
// with the given count, sharing existing prefix nodes.
//
//invcheck:hotpath
func (t *Tree) Insert(path []int32, count int) {
	cur := int32(0)
	for _, rk := range path {
		if t.totals[rk] == 0 {
			//lint:ignore invcheck/allocbound present grows at most once per distinct rank — bounded by |L1|, not by the transaction count
			t.present = append(t.present, rk)
		}
		t.totals[rk] += count
		cur = t.step(cur, rk, count)
	}
}

// Present returns the ranks that occur in the tree, sorted ascending. For
// a conditional tree this is exactly the surviving pattern base — usually
// a tiny fraction of the rank universe — which keeps the mining recursion
// at O(ranks present) per tree instead of O(|L1|).
func (t *Tree) Present() []int32 {
	sort.Slice(t.present, func(i, j int) bool { return t.present[i] < t.present[j] })
	return t.present
}

// step descends from cur to its rk child, creating the child if missing,
// and adds count to it.
//
//invcheck:hotpath
func (t *Tree) step(cur, rk int32, count int) int32 {
	var child int32
	if cur == 0 {
		child = t.rootIdx[rk]
	} else {
		child = t.nodes[cur].child
		for child != 0 && t.links[child].rank != rk {
			child = t.nodes[child].sibling
		}
	}
	if child == 0 {
		child = int32(len(t.nodes))
		//lint:ignore invcheck/allocbound node-arena growth: a node is created once per distinct path prefix and the backing arrays double amortized, far below one alloc per inserted path
		t.links, t.nodes = append(t.links, link{parent: cur, rank: rk}), append(t.nodes, node{sibling: t.nodes[cur].child, next: t.heads[rk]})
		t.nodes[cur].child = child
		t.heads[rk] = child
		if cur == 0 {
			t.rootIdx[rk] = child
		}
	}
	t.nodes[child].count += count
	return child
}

// Merge folds o into t by path-wise integer addition: every path of o is
// inserted into t with its count. Merging shard trees in any order yields
// node counts and header totals bit-identical to building one tree over
// the concatenated shards, because addition is commutative and paths are
// independent of shard boundaries. The distributed coordinator merges the
// trees its workers build over their replicas this way.
func (t *Tree) Merge(o *Tree) {
	t.mergeChildren(0, 0, o)
}

// mergeChildren mirrors o's subtree under src onto t's subtree under dst.
func (t *Tree) mergeChildren(dst, src int32, o *Tree) {
	for c := o.nodes[src].child; c != 0; c = o.nodes[c].sibling {
		rk := o.links[c].rank
		cnt := o.nodes[c].count
		if t.totals[rk] == 0 {
			t.present = append(t.present, rk)
		}
		t.totals[rk] += cnt
		d := t.step(dst, rk, cnt)
		t.mergeChildren(d, c, o)
	}
}

// EncodedNode is the wire form of one FP-tree node for the distributed
// backend (internal/dist): the node's item rank, the pool index of its
// parent, and its transaction count. Child, sibling and header-chain links
// are structural and are rebuilt by Import, so a serialized tree is just
// the flat node pool.
type EncodedNode struct {
	Rank   int32
	Parent int32
	Count  int
}

// Export serializes the tree's item nodes in pool order (the root is
// implicit). Nodes are appended to the pool as paths are inserted, so a
// parent always precedes its children; Import relies on that to rebuild
// links in one forward pass. For a tree from Build the pool order is the
// depth-first preorder of the sorted paths, so equal transaction
// multisets export equal bytes.
func (t *Tree) Export() []EncodedNode {
	out := make([]EncodedNode, len(t.nodes)-1)
	for i := range out {
		l := t.links[i+1]
		out[i] = EncodedNode{Rank: l.rank, Parent: l.parent, Count: t.nodes[i+1].count}
	}
	return out
}

// Import rebuilds a tree from Export's node list under the shared rank
// table. Node counts, header totals and the present-rank set are identical
// to the exported tree's; sibling and header-chain order may differ, which
// mining never observes — pattern counts are sums over whole chains and
// merges are commutative. Malformed wire data (out-of-range rank or a
// parent that does not precede its child) returns an error instead of
// corrupting the pool.
func Import(r *Ranks, nodes []EncodedNode) (*Tree, error) {
	t := New(r)
	t.links = make([]link, 1, len(nodes)+1)
	t.nodes = make([]node, 1, len(nodes)+1)
	for i, en := range nodes {
		idx := int32(len(t.nodes))
		if en.Rank < 0 || int(en.Rank) >= r.Len() {
			return nil, fmt.Errorf("fptree: import node %d: rank %d outside universe %d", i, en.Rank, r.Len())
		}
		if en.Parent < 0 || en.Parent >= idx {
			return nil, fmt.Errorf("fptree: import node %d: parent %d does not precede it", i, en.Parent)
		}
		// Every exported node carries at least one transaction; zero or
		// negative wire counts would corrupt the first-touch present set
		// and the totals.
		if en.Count <= 0 {
			return nil, fmt.Errorf("fptree: import node %d: non-positive count %d", i, en.Count)
		}
		t.links = append(t.links, link{parent: en.Parent, rank: en.Rank})
		t.nodes = append(t.nodes, node{
			sibling: t.nodes[en.Parent].child,
			next:    t.heads[en.Rank],
			count:   en.Count,
		})
		t.nodes[en.Parent].child = idx
		t.heads[en.Rank] = idx
		if en.Parent == 0 {
			t.rootIdx[en.Rank] = idx
		}
		if t.totals[en.Rank] == 0 {
			t.present = append(t.present, en.Rank)
		}
		t.totals[en.Rank] += en.Count
	}
	return t, nil
}

// Scratch pools the buffers conditional projection and single-path
// detection reuse across the mining recursion: the per-rank conditional
// count array (zeroed back after every projection), the recorded prefix
// paths of the current projection, the insert and single-path buffers,
// and released conditional trees. One Scratch serves one goroutine; it
// must not be shared concurrently.
type Scratch struct {
	counts   []int   // per-rank conditional counts, transiently non-zero
	touched  []int32 // ranks written into counts by the current projection
	prefix   []int32 // recorded prefix paths, each leaf-to-root, end to end
	ends     []int   // prefix path i ends at prefix[ends[i]]
	weights  []int   // prefix path i's count (its chain node's count)
	path     []int32 // filtered insert buffer
	spRanks  []int32 // SinglePath rank buffer
	spCounts []int   // SinglePath count buffer
	free     []*Tree // released conditional trees, ready for reuse
}

// NewScratch returns a scratch sized for the rank universe.
func NewScratch(r *Ranks) *Scratch {
	return &Scratch{counts: make([]int, r.Len())}
}

// Release returns a conditional tree obtained from Project to the pool so
// the next projection reuses its node slice and header arrays.
func (s *Scratch) Release(t *Tree) { s.free = append(s.free, t) }

// getTree hands out a recycled tree (reset) or a fresh one.
func (s *Scratch) getTree(r *Ranks) *Tree {
	if n := len(s.free); n > 0 {
		t := s.free[n-1]
		s.free = s.free[:n-1]
		t.reset(r)
		return t
	}
	return New(r)
}

// reset clears the tree for reuse under the given rank table.
func (t *Tree) reset(r *Ranks) {
	t.ranks = r
	t.links = t.links[:1]
	t.nodes = t.nodes[:1]
	t.nodes[0] = node{}
	t.present = t.present[:0]
	if len(t.heads) != r.Len() {
		t.heads = make([]int32, r.Len())
		t.totals = make([]int, r.Len())
		t.rootIdx = make([]int32, r.Len())
		return
	}
	for i := range t.heads {
		t.heads[i] = 0
	}
	for i := range t.totals {
		t.totals[i] = 0
	}
	for i := range t.rootIdx {
		t.rootIdx[i] = 0
	}
}

// Project builds the conditional FP-tree of rank: the prefix paths of
// rank's header chain form its conditional pattern base; items whose
// conditional support falls below minCount are pruned before insertion
// (conditional-tree pruning), so the returned tree holds exactly the
// frequent extension context of rank. The tree comes from the scratch
// pool — hand it back with s.Release once its recursion finishes.
func (t *Tree) Project(rank int32, minCount int, s *Scratch) *Tree {
	// Pass 1 walks each chain node's ancestors once: it sums the exact
	// conditional count of every ancestor rank (touching only the ranks
	// that occur) and records the prefix path, so pass 2 never walks the
	// tree again. Depth-1 chain nodes have empty prefixes and are skipped.
	s.touched = s.touched[:0]
	s.prefix, s.ends, s.weights = s.prefix[:0], s.ends[:0], s.weights[:0]
	for n := t.heads[rank]; n != 0; n = t.nodes[n].next {
		p := t.links[n].parent
		if p == 0 {
			continue
		}
		cnt := t.nodes[n].count
		for ; p != 0; p = t.links[p].parent {
			rk := t.links[p].rank
			if s.counts[rk] == 0 {
				s.touched = append(s.touched, rk)
			}
			s.counts[rk] += cnt
			s.prefix = append(s.prefix, rk)
		}
		s.ends = append(s.ends, len(s.prefix))
		s.weights = append(s.weights, cnt)
	}
	cond := s.getTree(t.ranks)
	// Pass 2 inserts each recorded prefix, filtered to surviving ranks.
	// Prefixes were recorded leaf-to-root (descending ranks), so reading
	// them back to front yields the ascending path Insert takes.
	start := 0
	for i, end := range s.ends {
		s.path = s.path[:0]
		for j := end - 1; j >= start; j-- {
			if rk := s.prefix[j]; s.counts[rk] >= minCount {
				s.path = append(s.path, rk)
			}
		}
		start = end
		if len(s.path) > 0 {
			cond.Insert(s.path, s.weights[i])
		}
	}
	// Zero only the touched counters so the array is clean for the next
	// projection at O(distinct ranks seen), not O(|L1|).
	for _, rk := range s.touched {
		s.counts[rk] = 0
	}
	return cond
}

// SinglePath reports whether the tree is one chain (every node has at most
// one child) and, if so, returns the chain's ranks and counts top-down.
// The returned slices are scratch-owned and valid until the next
// SinglePath call on the same scratch. Counts never increase along the
// chain, which is what makes the miner's subset shortcut exact: a subset's
// support is its deepest member's count.
func (t *Tree) SinglePath(s *Scratch) ([]int32, []int, bool) {
	s.spRanks = s.spRanks[:0]
	s.spCounts = s.spCounts[:0]
	for n := t.nodes[0].child; n != 0; n = t.nodes[n].child {
		if t.nodes[n].sibling != 0 {
			return nil, nil, false
		}
		s.spRanks = append(s.spRanks, t.links[n].rank)
		s.spCounts = append(s.spCounts, t.nodes[n].count)
	}
	return s.spRanks, s.spCounts, true
}
