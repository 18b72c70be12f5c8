package fptree

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/transactions"
)

// countItems is a test-local pass-1 scan.
func countItems(txs []transactions.Itemset, numItems int) []int {
	counts := make([]int, numItems)
	for _, tx := range txs {
		for _, item := range tx {
			counts[item]++
		}
	}
	return counts
}

// paperTxs is the worked example of the FP-growth paper (items renamed to
// small ints): five transactions whose tree has the shape the paper draws.
func paperTxs() []transactions.Itemset {
	return []transactions.Itemset{
		transactions.NewItemset(0, 1, 4, 6, 9),
		transactions.NewItemset(0, 1, 2, 5, 8),
		transactions.NewItemset(1, 3, 7),
		transactions.NewItemset(1, 2, 9),
		transactions.NewItemset(0, 1, 2, 5, 9),
	}
}

func TestNewRanksOrder(t *testing.T) {
	counts := []int{3, 0, 3, 1, 5, 2}
	r := NewRanks(counts, 2)
	// Frequent: item 4 (5), items 0 and 2 (3 each, tie broken by id), item 5 (2).
	wantItems := []int32{4, 0, 2, 5}
	if !reflect.DeepEqual(r.Items, wantItems) {
		t.Fatalf("Items = %v, want %v", r.Items, wantItems)
	}
	if !reflect.DeepEqual(r.Counts, []int{5, 3, 3, 2}) {
		t.Fatalf("Counts = %v", r.Counts)
	}
	for item, rk := range r.OfItem {
		frequent := counts[item] >= 2
		if frequent != (rk >= 0) {
			t.Fatalf("OfItem[%d] = %d, frequent=%v", item, rk, frequent)
		}
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d", r.Len())
	}
}

func TestBuildTotalsMatchSupports(t *testing.T) {
	txs := paperTxs()
	counts := countItems(txs, 10)
	r := NewRanks(counts, 2)
	tree := Build(txs, r)
	for rk := 0; rk < r.Len(); rk++ {
		if got, want := tree.Total(int32(rk)), r.Counts[rk]; got != want {
			t.Errorf("Total(rank %d, item %d) = %d, want %d", rk, r.Items[rk], got, want)
		}
	}
	if tree.Empty() {
		t.Fatal("tree should not be empty")
	}
	// Prefix compression: the node count must be below the total item
	// occurrences (paths share prefixes) but at least the rank count.
	occurrences := 0
	for rk := 0; rk < r.Len(); rk++ {
		occurrences += r.Counts[rk]
	}
	if n := tree.NumNodes(); n >= occurrences || n < r.Len() {
		t.Fatalf("NumNodes = %d, want in [%d, %d)", n, r.Len(), occurrences)
	}
}

// TestMergeBitIdentical splits random databases into shards, builds one
// tree per shard, merges them in order and in reverse, and checks both
// merged trees agree with the single-build tree on every rank total and on
// every projection's totals — the bit-identical-counts contract. It also
// pins the sorted-path layout: Build over a shuffled copy of the database,
// or over its shards concatenated in reverse, exports the same bytes as
// the single build, because the pool order follows the sorted paths, not
// the input order.
func TestMergeBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		nTx := 5 + rng.Intn(60)
		txs := make([]transactions.Itemset, nTx)
		for i := range txs {
			n := 1 + rng.Intn(7)
			items := make([]int, n)
			for j := range items {
				items[j] = rng.Intn(12)
			}
			txs[i] = transactions.NewItemset(items...)
		}
		minCount := 1 + rng.Intn(4)
		r := NewRanks(countItems(txs, 12), minCount)
		want := Build(txs, r)

		nShards := 1 + rng.Intn(5)
		var shards [][]transactions.Itemset
		per := nTx / nShards
		for s := 0; s < nShards; s++ {
			lo := s * per
			hi := lo + per
			if s == nShards-1 {
				hi = nTx
			}
			shards = append(shards, txs[lo:hi])
		}
		shuffled := slices.Clone(txs)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		var reversed []transactions.Itemset
		for _, s := range backward(nShards) {
			reversed = append(reversed, shards[s]...)
		}
		for name, in := range map[string][]transactions.Itemset{"shuffled": shuffled, "reversed shards": reversed} {
			if got := Build(in, r).Export(); !reflect.DeepEqual(got, want.Export()) {
				t.Fatalf("trial %d: Build over %s transactions exports a different pool", trial, name)
			}
		}
		for _, order := range [][]int{forward(nShards), backward(nShards)} {
			merged := New(r)
			for _, s := range order {
				merged.Merge(Build(shards[s], r))
			}
			for rk := 0; rk < r.Len(); rk++ {
				if merged.Total(int32(rk)) != want.Total(int32(rk)) {
					t.Fatalf("trial %d: merged total of rank %d = %d, want %d",
						trial, rk, merged.Total(int32(rk)), want.Total(int32(rk)))
				}
			}
			// Projections over the merged tree must agree with projections
			// over the single-build tree rank by rank.
			sm, sw := NewScratch(r), NewScratch(r)
			for rk := 0; rk < r.Len(); rk++ {
				cm := merged.Project(int32(rk), minCount, sm)
				cw := want.Project(int32(rk), minCount, sw)
				for rr := 0; rr < r.Len(); rr++ {
					if cm.Total(int32(rr)) != cw.Total(int32(rr)) {
						t.Fatalf("trial %d: conditional total diverges at rank %d|%d: %d vs %d",
							trial, rr, rk, cm.Total(int32(rr)), cw.Total(int32(rr)))
					}
				}
				sm.Release(cm)
				sw.Release(cw)
			}
		}
	}
}

func forward(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func backward(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = n - 1 - i
	}
	return out
}

// TestProjectCountsAreExactSupports cross-checks conditional totals against
// brute-force co-occurrence counts.
func TestProjectCountsAreExactSupports(t *testing.T) {
	txs := paperTxs()
	const minCount = 2
	r := NewRanks(countItems(txs, 10), minCount)
	tree := Build(txs, r)
	s := NewScratch(r)
	for rk := 0; rk < r.Len(); rk++ {
		cond := tree.Project(int32(rk), minCount, s)
		for rr := 0; rr < r.Len(); rr++ {
			got := cond.Total(int32(rr))
			// Brute force: transactions containing both items. Only ranks
			// above rk (more frequent items) appear in rk's prefix paths —
			// that is how pattern growth counts each itemset exactly once,
			// at its least-frequent member.
			pair := transactions.NewItemset(int(r.Items[rk]), int(r.Items[rr]))
			want := 0
			if rr < rk {
				for _, tx := range txs {
					if tx.ContainsAll(pair) {
						want++
					}
				}
				if want < minCount {
					want = 0 // pruned before insertion
				}
			}
			if got != want {
				t.Errorf("conditional support of item %d given %d = %d, want %d",
					r.Items[rr], r.Items[rk], got, want)
			}
		}
		s.Release(cond)
	}
}

func TestSinglePath(t *testing.T) {
	txs := []transactions.Itemset{
		transactions.NewItemset(1, 2, 3),
		transactions.NewItemset(1, 2),
		transactions.NewItemset(1),
	}
	r := NewRanks(countItems(txs, 4), 1)
	tree := Build(txs, r)
	s := NewScratch(r)
	ranks, counts, ok := tree.SinglePath(s)
	if !ok {
		t.Fatal("chain database should build a single-path tree")
	}
	if len(ranks) != 3 || !reflect.DeepEqual(counts, []int{3, 2, 1}) {
		t.Fatalf("path = %v counts = %v", ranks, counts)
	}

	branchy := append(txs, transactions.NewItemset(0, 3))
	rb := NewRanks(countItems(branchy, 4), 1)
	bt := Build(branchy, rb)
	if _, _, ok := bt.SinglePath(s); ok {
		t.Fatal("branching tree reported as single path")
	}

	if _, _, ok := New(r).SinglePath(s); !ok {
		t.Fatal("empty tree is trivially a single (empty) path")
	}
}

// TestScratchTreeReuse pins the pool round-trip: a released tree is reused
// and behaves like a fresh one.
func TestScratchTreeReuse(t *testing.T) {
	txs := paperTxs()
	r := NewRanks(countItems(txs, 10), 2)
	tree := Build(txs, r)
	s := NewScratch(r)
	first := tree.Project(0, 2, s)
	firstTotals := make([]int, r.Len())
	for rk := range firstTotals {
		firstTotals[rk] = first.Total(int32(rk))
	}
	s.Release(first)
	again := tree.Project(0, 2, s)
	if again != first {
		t.Fatal("pool did not recycle the released tree")
	}
	for rk := range firstTotals {
		if again.Total(int32(rk)) != firstTotals[rk] {
			t.Fatalf("recycled tree totals diverge at rank %d", rk)
		}
	}
}

func TestBuildIgnoresInfrequentAndOutOfRange(t *testing.T) {
	txs := []transactions.Itemset{
		transactions.NewItemset(0, 1),
		transactions.NewItemset(0, 1),
		transactions.NewItemset(2), // infrequent at minCount 2
	}
	r := NewRanks(countItems(txs, 3), 2)
	// An item beyond the rank table (seen only after ranks froze) is skipped.
	tree := Build(append(txs, transactions.NewItemset(0, 7)), r)
	if got := tree.Total(r.OfItem[0]); got != 3 {
		t.Fatalf("Total(item 0) = %d, want 3", got)
	}
	if tree.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d, want 2 (shared prefix)", tree.NumNodes())
	}
	// Transactions without a single ranked item build nothing.
	if empty := Build([]transactions.Itemset{transactions.NewItemset(2), transactions.NewItemset(9), nil}, r); !empty.Empty() {
		t.Fatalf("NumNodes = %d, want an empty tree", empty.NumNodes())
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	txs := paperTxs()
	r := NewRanks(countItems(txs, 10), 2)
	tree := Build(txs, r)
	imported, err := Import(r, tree.Export())
	if err != nil {
		t.Fatal(err)
	}
	if imported.NumNodes() != tree.NumNodes() {
		t.Fatalf("nodes = %d, want %d", imported.NumNodes(), tree.NumNodes())
	}
	for rk := int32(0); int(rk) < r.Len(); rk++ {
		if imported.Total(rk) != tree.Total(rk) {
			t.Errorf("total(rank %d) = %d, want %d", rk, imported.Total(rk), tree.Total(rk))
		}
	}
	if !reflect.DeepEqual(imported.Present(), tree.Present()) {
		t.Errorf("present = %v, want %v", imported.Present(), tree.Present())
	}
	// Projection counts survive the round trip: same conditional supports
	// for every rank even though chain orders may differ.
	s1, s2 := NewScratch(r), NewScratch(r)
	for rk := int32(0); int(rk) < r.Len(); rk++ {
		a := tree.Project(rk, 2, s1)
		b := imported.Project(rk, 2, s2)
		for p := int32(0); int(p) < r.Len(); p++ {
			if a.Total(p) != b.Total(p) {
				t.Errorf("project(%d) total(%d) = %d, want %d", rk, p, b.Total(p), a.Total(p))
			}
		}
		s1.Release(a)
		s2.Release(b)
	}
}

func TestImportRandomizedEqualsMergedBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		var txs []transactions.Itemset
		n := 5 + rng.Intn(40)
		for i := 0; i < n; i++ {
			m := 1 + rng.Intn(6)
			items := make([]int, m)
			for j := range items {
				items[j] = rng.Intn(12)
			}
			txs = append(txs, transactions.NewItemset(items...))
		}
		r := NewRanks(countItems(txs, 12), 2)
		whole := Build(txs, r)
		// Split, build per part, export/import each, merge — the
		// distributed build path — and compare totals and node counts.
		cut := rng.Intn(len(txs))
		a, err := Import(r, Build(txs[:cut], r).Export())
		if err != nil {
			t.Fatal(err)
		}
		b, err := Import(r, Build(txs[cut:], r).Export())
		if err != nil {
			t.Fatal(err)
		}
		a.Merge(b)
		if a.NumNodes() != whole.NumNodes() {
			t.Fatalf("trial %d: nodes = %d, want %d", trial, a.NumNodes(), whole.NumNodes())
		}
		for rk := int32(0); int(rk) < r.Len(); rk++ {
			if a.Total(rk) != whole.Total(rk) {
				t.Fatalf("trial %d: total(%d) = %d, want %d", trial, rk, a.Total(rk), whole.Total(rk))
			}
		}
	}
}

func TestImportRejectsMalformedNodes(t *testing.T) {
	r := NewRanks([]int{5, 5}, 2)
	if _, err := Import(r, []EncodedNode{{Rank: 9, Parent: 0, Count: 1}}); err == nil {
		t.Error("out-of-range rank accepted")
	}
	if _, err := Import(r, []EncodedNode{{Rank: 0, Parent: 5, Count: 1}}); err == nil {
		t.Error("forward parent reference accepted")
	}
	if _, err := Import(r, []EncodedNode{{Rank: 0, Parent: -1, Count: 1}}); err == nil {
		t.Error("negative parent accepted")
	}
	if _, err := Import(r, []EncodedNode{{Rank: 0, Parent: 0, Count: 0}}); err == nil {
		t.Error("zero count accepted")
	}
	if _, err := Import(r, []EncodedNode{{Rank: 0, Parent: 0, Count: -3}}); err == nil {
		t.Error("negative count accepted")
	}
}
