// Package hashtree implements the candidate hash tree of Agrawal & Srikant
// (VLDB'94 §2.1.2), the data structure Apriori uses to count, for every
// transaction, which of the current candidate k-itemsets it contains,
// without testing every candidate.
//
// The structure is the paper's: interior nodes hash the item at their
// depth to a child, leaves hold candidates, and a leaf splits into an
// interior node once it holds more than leafCap candidates (unless it is
// already at depth k). Only the hash differs. Each item is hashed to its
// dense rank among the items that occur in the tree's candidates, which
// is a perfect hash, so every descent is exact:
//
//   - a leaf at depth d holds only candidates whose first d items equal
//     the path that reaches it, so a leaf visit checks just the candidate
//     suffix Items[d:], and only against the transaction items after the
//     last matched position;
//   - a transaction's items are distinct, so it reaches each leaf at most
//     once and no candidate can be counted twice for one transaction;
//   - counting first remaps the transaction into rank space and drops the
//     items no candidate contains. An item id at or past the rank table's
//     end is skipped too: a tree frozen earlier may count rows that carry
//     item ids it never saw.
//
// Rank order is item order, so rank-space transactions and candidates stay
// sorted. Nodes live in one flat int32 pool in depth-first preorder: no
// pointers, no per-node allocations.
//
// The tree is read-only once built. It takes part in the engine's
// shard/count/merge contract through CountBuffer: each worker (or each
// shard of the incremental backend's cache) counts into a private buffer
// indexed by candidate, and the buffers merge by plain integer addition —
// bit-identical to a serial scan in any merge order.
package hashtree

import (
	"errors"
	"sort"

	"repro/internal/transactions"
)

// leafCap is the most candidates a leaf holds before it splits. Every
// leaf candidate costs a suffix check, every split an interior node. On
// T10.I4.D100K over 500 items at minsup 0.003 (C3 = 851, C4 = 32), serial
// Apriori's passes 3+ took 52/53/53/68/72/80 ms for caps 1/2/4/8/16/32
// (best of 7 mines, 2 vCPU, Go 1.24); 4 is the largest cap at the floor.
const leafCap = 4

// Errors returned by Build.
var (
	ErrBadK        = errors.New("hashtree: candidate length must be positive")
	ErrWrongLength = errors.New("hashtree: itemset length does not match tree")
	ErrUnsorted    = errors.New("hashtree: candidate items must be non-negative and strictly increasing")
)

// Tree is a read-only hash tree over candidate itemsets of one length k.
// Candidate i of the slice passed to Build is counted in CountBuffer
// slot i.
type Tree struct {
	k int
	n int // candidates

	// rank maps an item id to its dense rank among the candidates' items,
	// -1 for items no candidate contains; numRanks is the rank count.
	rank     []int32
	numRanks int

	// cands holds candidate i in rank space at cands[i*k : i*k+k].
	cands []int32

	// nodes is the node pool, root at offset 0. An interior node is
	// lo, width, then width child offsets for ranks lo..lo+width-1 (0 for
	// no child: the root is nobody's child). A leaf is ^m, then m
	// candidate indices.
	nodes []int32
}

// Build returns the hash tree over cands, which must all have length k
// and be sorted, duplicate-free itemsets. The candidates are copied into
// rank space; cands is not retained.
func Build(k int, cands []transactions.Itemset) (*Tree, error) {
	if k < 1 {
		return nil, ErrBadK
	}
	maxItem := -1
	for _, c := range cands {
		if len(c) != k {
			return nil, ErrWrongLength
		}
		for j, item := range c {
			if item < 0 || (j > 0 && item <= c[j-1]) {
				return nil, ErrUnsorted
			}
		}
		maxItem = max(maxItem, c[k-1])
	}
	// Mark the candidates' items, then number them in item order.
	t := &Tree{k: k, n: len(cands), rank: make([]int32, maxItem+1)}
	for i := range t.rank {
		t.rank[i] = -1
	}
	for _, c := range cands {
		for _, item := range c {
			t.rank[item] = 0
		}
	}
	for item, r := range t.rank {
		if r == 0 {
			t.rank[item] = int32(t.numRanks)
			t.numRanks++
		}
	}
	t.cands = make([]int32, 0, len(cands)*k)
	order := make([]int32, len(cands))
	for i, c := range cands {
		for _, item := range c {
			t.cands = append(t.cands, t.rank[item])
		}
		order[i] = int32(i)
	}
	// Lexicographic order groups each subtree's candidates into one run.
	sort.Slice(order, func(a, b int) bool {
		ca, cb := t.cand(order[a]), t.cand(order[b])
		for j := range ca {
			if ca[j] != cb[j] {
				return ca[j] < cb[j]
			}
		}
		return order[a] < order[b]
	})
	t.build(order, 0)
	return t, nil
}

// cand returns candidate i in rank space.
func (t *Tree) cand(i int32) []int32 {
	return t.cands[int(i)*t.k : int(i+1)*t.k]
}

// build appends the subtree over ids (sorted, sharing their first depth
// items) to the pool and returns its offset.
func (t *Tree) build(ids []int32, depth int) int32 {
	off := int32(len(t.nodes))
	if len(ids) <= leafCap || depth == t.k {
		t.nodes = append(t.nodes, ^int32(len(ids)))
		t.nodes = append(t.nodes, ids...)
		return off
	}
	lo := t.cand(ids[0])[depth]
	width := t.cand(ids[len(ids)-1])[depth] - lo + 1
	t.nodes = append(t.nodes, lo, width)
	t.nodes = append(t.nodes, make([]int32, width)...)
	for i := 0; i < len(ids); {
		r := t.cand(ids[i])[depth]
		j := i + 1
		for j < len(ids) && t.cand(ids[j])[depth] == r {
			j++
		}
		child := t.build(ids[i:j], depth+1)
		t.nodes[off+2+r-lo] = child
		i = j
	}
	return off
}

// Len returns the number of candidates.
func (t *Tree) Len() int { return t.n }

// CountBuffer is one worker's private counting state for a tree: Counts
// indexed by candidate, plus the scratch the kernel remaps each
// transaction into. Workers only read the tree, so any number of them may
// count disjoint transaction shards concurrently, each into its own
// buffer; the Counts merge by addition after the scan (count
// distribution). A buffer belongs to the tree that made it.
type CountBuffer struct {
	Counts []int
	tx     []int32 // rank-space transaction scratch; a set maps to at most numRanks ranks
}

// NewCountBuffer returns a zeroed buffer for the tree.
func (t *Tree) NewCountBuffer() *CountBuffer {
	return &CountBuffer{Counts: make([]int, t.n), tx: make([]int32, t.numRanks)}
}

// CountInto adds one to buf.Counts[i] for every candidate i that is a
// subset of tx, a sorted, duplicate-free itemset. It is the counting
// kernel of every level-wise pass 3+ and must stay allocation-free: it
// runs once per transaction per pass.
//
//invcheck:hotpath
func (t *Tree) CountInto(tx transactions.Itemset, buf *CountBuffer) {
	if len(tx) < t.k || t.n == 0 {
		return
	}
	n := 0
	for _, item := range tx {
		if uint(item) < uint(len(t.rank)) {
			if r := t.rank[item]; r >= 0 {
				buf.tx[n] = r
				n++
			}
		}
	}
	if n >= t.k {
		t.walk(buf, buf.tx[:n], 0, 0, 0)
	}
}

// walk descends from the node at off, reached by matching the rank-space
// transaction rtx up to position start-1 against the first depth items of
// every candidate below it.
//
//invcheck:hotpath
func (t *Tree) walk(buf *CountBuffer, rtx []int32, off int32, start, depth int) {
	head := t.nodes[off]
	if head < 0 {
		for _, id := range t.nodes[off+1 : off+1+^head] {
			if containsFrom(rtx[start:], t.cand(id)[depth:]) {
				buf.Counts[id]++
			}
		}
		return
	}
	width := t.nodes[off+1]
	children := t.nodes[off+2 : off+2+width]
	// The k-depth items still to match must fit in what remains.
	for i := start; i <= len(rtx)-(t.k-depth); i++ {
		slot := rtx[i] - head
		if slot < 0 {
			continue
		}
		if slot >= width {
			return
		}
		if child := children[slot]; child != 0 {
			t.walk(buf, rtx, child, i+1, depth+1)
		}
	}
}

// containsFrom reports whether the sorted set sub is a subset of the
// sorted set s.
func containsFrom(s, sub []int32) bool {
	i := 0
	for _, want := range sub {
		for i < len(s) && s[i] < want {
			i++
		}
		if i == len(s) || s[i] != want {
			return false
		}
		i++
	}
	return true
}
