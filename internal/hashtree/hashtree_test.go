package hashtree

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/transactions"
)

// mustBuild builds the tree or fails the test.
func mustBuild(t *testing.T, k int, cands []transactions.Itemset) *Tree {
	t.Helper()
	tr, err := Build(k, cands)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// countAll scans txs serially into one fresh buffer.
func countAll(tr *Tree, txs []transactions.Itemset) []int {
	buf := tr.NewCountBuffer()
	for _, tx := range txs {
		tr.CountInto(tx, buf)
	}
	return buf.Counts
}

// bruteForce counts every candidate by a subset test per transaction.
func bruteForce(cands, txs []transactions.Itemset) []int {
	want := make([]int, len(cands))
	for i, c := range cands {
		for _, tx := range txs {
			if tx.ContainsAll(c) {
				want[i]++
			}
		}
	}
	return want
}

// leafDepths reports the depth of every leaf in the node pool.
func leafDepths(tr *Tree) map[int]bool {
	out := map[int]bool{}
	var rec func(off int32, depth int)
	rec = func(off int32, depth int) {
		head := tr.nodes[off]
		if head < 0 {
			out[depth] = true
			return
		}
		for _, child := range tr.nodes[off+2 : off+2+tr.nodes[off+1]] {
			if child != 0 {
				rec(child, depth+1)
			}
		}
	}
	rec(0, 0)
	return out
}

// allSubsets returns every k-subset of {0..n-1} in lexicographic order.
func allSubsets(n, k int) []transactions.Itemset {
	var out []transactions.Itemset
	cur := make([]int, 0, k)
	var rec func(start int)
	rec = func(start int) {
		if len(cur) == k {
			out = append(out, transactions.NewItemset(cur...))
			return
		}
		for i := start; i < n; i++ {
			cur = append(cur, i)
			rec(i + 1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
	return out
}

func TestBuildAndLen(t *testing.T) {
	tr := mustBuild(t, 2, []transactions.Itemset{
		transactions.NewItemset(1, 2),
		transactions.NewItemset(1, 3),
	})
	if tr.Len() != 2 {
		t.Errorf("Len = %d", tr.Len())
	}
	if got := len(tr.NewCountBuffer().Counts); got != 2 {
		t.Errorf("buffer slots = %d, want 2", got)
	}
	empty := mustBuild(t, 3, nil)
	if empty.Len() != 0 {
		t.Errorf("empty Len = %d", empty.Len())
	}
	if got := countAll(empty, []transactions.Itemset{transactions.NewItemset(1, 2, 3)}); len(got) != 0 {
		t.Errorf("empty tree counts = %v", got)
	}
}

// TestBuildValidation: Build rejects a bad length, and candidates that
// are not sorted sets of item ids, over which the rank descent would not
// be exact.
func TestBuildValidation(t *testing.T) {
	cases := []struct {
		name  string
		k     int
		cands []transactions.Itemset
		want  error
	}{
		{"k=0", 0, nil, ErrBadK},
		{"wrong length", 2, []transactions.Itemset{{1, 2}, {1, 2, 3}}, ErrWrongLength},
		{"unsorted", 2, []transactions.Itemset{{3, 1}}, ErrUnsorted},
		{"repeated item", 2, []transactions.Itemset{{2, 2}}, ErrUnsorted},
		{"negative item", 2, []transactions.Itemset{{-1, 2}}, ErrUnsorted},
	}
	for _, tc := range cases {
		if _, err := Build(tc.k, tc.cands); !errors.Is(err, tc.want) {
			t.Errorf("%s: error = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestCountSimple(t *testing.T) {
	cands := []transactions.Itemset{
		transactions.NewItemset(1, 2),
		transactions.NewItemset(1, 3),
		transactions.NewItemset(2, 4),
	}
	txs := []transactions.Itemset{
		transactions.NewItemset(1, 2, 3),
		transactions.NewItemset(1, 2),
		transactions.NewItemset(2, 4, 5),
		transactions.NewItemset(3),
	}
	got := countAll(mustBuild(t, 2, cands), txs)
	for i, want := range []int{2, 1, 1} {
		if got[i] != want {
			t.Errorf("%v count = %d, want %d", cands[i], got[i], want)
		}
	}
}

func TestCountShortTransactionSkipped(t *testing.T) {
	tr := mustBuild(t, 3, []transactions.Itemset{transactions.NewItemset(1, 2, 3)})
	// Too short outright, and too short once the rankless item is dropped.
	got := countAll(tr, []transactions.Itemset{
		transactions.NewItemset(1, 2),
		transactions.NewItemset(1, 2, 7),
	})
	if got[0] != 0 {
		t.Errorf("count = %d, want 0", got[0])
	}
}

func TestLeafSplitStillCorrect(t *testing.T) {
	// 28 pairs over 8 items overflow a leaf, so the root splits and the
	// first items' subtrees split again; verify against brute force.
	cands := allSubsets(8, 2)
	tr := mustBuild(t, 2, cands)
	if d := leafDepths(tr); d[0] || !d[2] {
		t.Fatalf("leaf depths = %v, want split leaves down to depth 2", d)
	}
	rng := rand.New(rand.NewSource(1))
	var txs []transactions.Itemset
	for i := 0; i < 50; i++ {
		items := make([]int, 1+rng.Intn(6))
		for j := range items {
			items[j] = rng.Intn(8)
		}
		txs = append(txs, transactions.NewItemset(items...))
	}
	got, want := countAll(tr, txs), bruteForce(cands, txs)
	for i := range cands {
		if got[i] != want[i] {
			t.Errorf("candidate %v count = %d, want %d", cands[i], got[i], want[i])
		}
	}
}

// TestNoDoubleCount: one transaction adds at most one to any candidate.
// Every 3-subset of 10 items gives leaves at every depth, and the longest
// transaction reaches every one of them.
func TestNoDoubleCount(t *testing.T) {
	cands := allSubsets(10, 3)
	tr := mustBuild(t, 3, cands)
	for _, tx := range []transactions.Itemset{
		transactions.NewItemset(0, 1, 2, 3, 4, 5, 6, 7, 8, 9),
		transactions.NewItemset(0, 2, 4, 6, 8, 10, 12),
		transactions.NewItemset(1, 3, 5),
	} {
		got := countAll(tr, []transactions.Itemset{tx})
		for i, c := range cands {
			want := 0
			if tx.ContainsAll(c) {
				want = 1
			}
			if got[i] != want {
				t.Fatalf("tx %v: %v counted %d times, want %d", tx, c, got[i], want)
			}
		}
	}
}

// TestSlotsFollowCandidateOrder: Build sorts the candidates internally,
// but slot i always counts the i-th candidate passed in, whatever their
// order.
func TestSlotsFollowCandidateOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cands := allSubsets(9, 3)
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	var txs []transactions.Itemset
	for i := 0; i < 60; i++ {
		items := make([]int, 2+rng.Intn(6))
		for j := range items {
			items[j] = rng.Intn(9)
		}
		txs = append(txs, transactions.NewItemset(items...))
	}
	got, want := countAll(mustBuild(t, 3, cands), txs), bruteForce(cands, txs)
	for i := range cands {
		if got[i] != want[i] {
			t.Errorf("slot %d (%v) = %d, want %d", i, cands[i], got[i], want[i])
		}
	}
}

// TestCountSkipsItemsOutsideCandidates feeds items that no candidate
// contains, both inside the rank table (ids between candidate items) and
// at or past its end (ids above every candidate item, as rows appended
// after a tree was frozen carry): they are skipped, never wrapped onto a
// ranked item.
func TestCountSkipsItemsOutsideCandidates(t *testing.T) {
	// Items 0..6 only; 3 appears in no candidate, the table ends at 6.
	cands := []transactions.Itemset{
		transactions.NewItemset(0, 1, 2),
		transactions.NewItemset(0, 2, 4),
		transactions.NewItemset(1, 2, 5),
		transactions.NewItemset(2, 4, 6),
		transactions.NewItemset(4, 5, 6),
		transactions.NewItemset(0, 4, 6),
	}
	tr := mustBuild(t, 3, cands)
	if len(tr.rank) != 7 || tr.rank[3] != -1 {
		t.Fatalf("rank table = %v, want 7 slots with item 3 unranked", tr.rank)
	}
	txs := []transactions.Itemset{
		transactions.NewItemset(0, 1, 2, 3),
		transactions.NewItemset(3, 7, 8, 9),                  // nothing ranked
		transactions.NewItemset(0, 7, 14, 21),                // 7k ids would alias 0 under mod 7
		transactions.NewItemset(2, 4, 6, 7, 1000, 1<<40),     // past the end, far past it
		transactions.NewItemset(0, 1, 2, 3, 4, 5, 6, 7, 100), // all of them
	}
	got, want := countAll(tr, txs), bruteForce(cands, txs)
	for i := range cands {
		if got[i] != want[i] {
			t.Errorf("%v count = %d, want %d", cands[i], got[i], want[i])
		}
	}
}

// Property: counting agrees with brute-force subset counting for random
// candidate sets of lengths 2..5 and random transactions that include
// items outside every candidate; across the runs, every length sees
// leaves at every depth 0..k.
func TestCountMatchesBruteForceProperty(t *testing.T) {
	depthsSeen := map[int]map[int]bool{}
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		k := 2 + local.Intn(4)
		universe := k + 2 + local.Intn(8)
		seen := map[string]bool{}
		var cands []transactions.Itemset
		for i, n := 0, 1+local.Intn(80); i < n; i++ {
			items := make([]int, k)
			keep := 0
			if len(cands) > 0 && local.Intn(2) == 0 {
				// A sibling of an earlier candidate: shared prefixes
				// are what push leaves deep.
				keep = 1 + local.Intn(k-1)
				copy(items, cands[local.Intn(len(cands))][:keep])
			}
			for j := keep; j < k; j++ {
				items[j] = local.Intn(universe)
			}
			s := transactions.NewItemset(items...)
			if len(s) != k || seen[s.Key()] {
				continue
			}
			seen[s.Key()] = true
			cands = append(cands, s)
		}
		tr, err := Build(k, cands)
		if err != nil {
			return false
		}
		if depthsSeen[k] == nil {
			depthsSeen[k] = map[int]bool{}
		}
		for d := range leafDepths(tr) {
			depthsSeen[k][d] = true
		}
		var txs []transactions.Itemset
		for i := 0; i < 40; i++ {
			items := make([]int, 1+local.Intn(universe+2))
			for j := range items {
				items[j] = local.Intn(universe + 4)
			}
			txs = append(txs, transactions.NewItemset(items...))
		}
		got, want := countAll(tr, txs), bruteForce(cands, txs)
		for i := range cands {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
	for k := 2; k <= 5; k++ {
		for d := 0; d <= k; d++ {
			if !depthsSeen[k][d] {
				t.Errorf("k=%d: no tree had a leaf at depth %d (seen %v)", k, d, depthsSeen[k])
			}
		}
	}
}

// TestTransactionZeroCounted: a fresh buffer counts the very first
// transaction it sees (a duplicate-visit guard keyed by transaction id
// once skipped it), and the next one too.
func TestTransactionZeroCounted(t *testing.T) {
	cands := append(allSubsets(6, 2), transactions.NewItemset(0, 6))
	tr := mustBuild(t, 2, cands)
	buf := tr.NewCountBuffer()
	last := len(cands) - 1
	tr.CountInto(transactions.NewItemset(0, 2, 6), buf)
	if buf.Counts[last] != 1 {
		t.Fatalf("first transaction: {0,6} count = %d, want 1", buf.Counts[last])
	}
	tr.CountInto(transactions.NewItemset(0, 6), buf)
	if buf.Counts[last] != 2 {
		t.Fatalf("second transaction: {0,6} count = %d, want 2", buf.Counts[last])
	}
}

// TestCountIntoAllocFree pins the kernel's allocation discipline at run
// time, beside invcheck's static allocbound gate.
func TestCountIntoAllocFree(t *testing.T) {
	tr := mustBuild(t, 3, allSubsets(12, 3))
	buf := tr.NewCountBuffer()
	tx := transactions.NewItemset(0, 1, 3, 5, 7, 8, 11, 40)
	if n := testing.AllocsPerRun(100, func() { tr.CountInto(tx, buf) }); n != 0 {
		t.Errorf("CountInto allocates %v times per transaction, want 0", n)
	}
}

// TestConcurrentCountMatchesSerial shards the transactions across workers
// counting into private buffers and checks the merged counts equal the
// serial scan, under the race detector.
func TestConcurrentCountMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, workers := range []int{1, 2, 4, 8} {
		var cands []transactions.Itemset
		seen := map[string]bool{}
		for i := 0; i < 25; i++ {
			s := transactions.NewItemset(rng.Intn(10), rng.Intn(10))
			if len(s) != 2 || seen[s.Key()] {
				continue
			}
			seen[s.Key()] = true
			cands = append(cands, s)
		}
		tr := mustBuild(t, 2, cands)
		var txs []transactions.Itemset
		for i := 0; i < 101; i++ {
			items := make([]int, 1+rng.Intn(7))
			for j := range items {
				items[j] = rng.Intn(12)
			}
			txs = append(txs, transactions.NewItemset(items...))
		}
		serial := countAll(tr, txs)

		// Count distribution: disjoint contiguous shards, private buffers.
		bufs := make([]*CountBuffer, workers)
		var wg sync.WaitGroup
		per := (len(txs) + workers - 1) / workers
		for w := 0; w < workers; w++ {
			start, end := w*per, min((w+1)*per, len(txs))
			if start >= end {
				continue
			}
			bufs[w] = tr.NewCountBuffer()
			wg.Add(1)
			go func(buf *CountBuffer, shard []transactions.Itemset) {
				defer wg.Done()
				for _, tx := range shard {
					tr.CountInto(tx, buf)
				}
			}(bufs[w], txs[start:end])
		}
		wg.Wait()
		merged := make([]int, len(cands))
		for _, buf := range bufs {
			if buf != nil {
				for i, c := range buf.Counts {
					merged[i] += c
				}
			}
		}
		want := bruteForce(cands, txs)
		for i := range cands {
			if merged[i] != serial[i] || serial[i] != want[i] {
				t.Fatalf("workers=%d: %v merged %d, serial %d, want %d", workers, cands[i], merged[i], serial[i], want[i])
			}
		}
	}
}
