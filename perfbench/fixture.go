package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"repro/internal/synth"
)

// fixture is one workload's generated input: the base database as
// basket-file bytes (what the program parses), the same rows for the
// benchmark's own reference mines, and a stream of further baskets from
// the same generator for appends.
type fixture struct {
	raw     []byte
	base    [][]int
	appends [][]int
}

// makeFixture draws d base baskets plus extra append baskets over an
// items-wide universe from the T10.I4 generator at seed. The appends
// continue the same generator stream, so they follow the base's
// pattern distribution.
func makeFixture(d, extra, items int, seed int64) (*fixture, error) {
	cfg := synth.T10I4(d+extra, seed)
	cfg.NumItems = items
	db, err := synth.Baskets(cfg)
	if err != nil {
		return nil, err
	}
	rows := make([][]int, len(db.Transactions))
	for i, t := range db.Transactions {
		rows[i] = []int(t)
	}
	var b bytes.Buffer
	for _, r := range rows[:d] {
		writeBasket(&b, r)
	}
	return &fixture{raw: b.Bytes(), base: rows[:d], appends: rows[d:]}, nil
}

// otherSeeds derives n further generator seeds from seed: the
// databases of the workload's shape the mine figures are also timed over.
func otherSeeds(n int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = rng.Int63()
	}
	return out
}

// writeBasket appends one basket line.
func writeBasket(b *bytes.Buffer, items []int) {
	for i, it := range items {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.Itoa(it))
	}
	b.WriteByte('\n')
}

// queryKind is one of the three read endpoints.
type queryKind int

// The read endpoints in the mix.
const (
	qRules queryKind = iota
	qRecommend
	qSupport
)

// String names the endpoint.
func (k queryKind) String() string {
	return [...]string{"rules", "recommend", "support"}[k]
}

// query is one read key: its URL path and the parameters the reference
// answer is recomputed from.
type query struct {
	kind  queryKind
	path  string
	k     int
	by    string
	items []int // antecedent, basket or itemset; sorted, distinct
}

// queryPool builds n distinct read keys from the base rows: half
// /v1/rules (varying k, ranking and antecedent), three tenths
// /v1/recommend (baskets taken from the fixture) and the rest
// /v1/support (one or two items from a fixture basket). The pool is
// shuffled so that Zipf rank is unrelated to kind.
func queryPool(rng *rand.Rand, base [][]int, n int) []query {
	seen := map[string]bool{}
	var pool []query
	add := func(q query) {
		if !seen[q.path] {
			seen[q.path] = true
			pool = append(pool, q)
		}
	}
	hot := hotItems(base, 100)
	ks := []int{1, 3, 5, 10, 20, 50}
	bys := []string{"confidence", "support", "lift"}
	for tries := 0; len(pool) < n/2 && tries < 100*n; tries++ {
		q := query{kind: qRules, k: ks[rng.Intn(len(ks))], by: bys[rng.Intn(len(bys))]}
		if a := rng.Intn(len(hot) + 1); a < len(hot) {
			q.items = []int{hot[a]}
		}
		q.path = fmt.Sprintf("/v1/rules?k=%d&by=%s", q.k, q.by)
		if len(q.items) > 0 {
			q.path += "&antecedent=" + joinItems(q.items)
		}
		add(q)
	}
	for tries := 0; len(pool) < n*8/10 && tries < 100*n; tries++ {
		basket := distinct(base[rng.Intn(len(base))])
		q := query{kind: qRecommend, k: 5, items: basket}
		q.path = "/v1/recommend?k=5&items=" + url.QueryEscape(joinItems(basket))
		add(q)
	}
	for tries := 0; len(pool) < n && tries < 100*n; tries++ {
		row := distinct(base[rng.Intn(len(base))])
		items := []int{row[rng.Intn(len(row))]}
		if len(row) > 1 && rng.Intn(2) == 0 {
			items = distinct(append(items, row[rng.Intn(len(row))]))
		}
		q := query{kind: qSupport, items: items}
		q.path = "/v1/support?items=" + url.QueryEscape(joinItems(items))
		add(q)
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool
}

// zipfPicks draws n pool indexes with Zipf skew (exponent 1.1): a few
// keys are hot, and the long tail keeps missing a cache smaller than
// the pool.
func zipfPicks(rng *rand.Rand, poolSize, n int) []int {
	z := rand.NewZipf(rng, 1.1, 1, uint64(poolSize-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// hotItems returns the n most frequent items of rows, most frequent
// first (ties by item id).
func hotItems(rows [][]int, n int) []int {
	counts := map[int]int{}
	for _, r := range rows {
		for _, it := range r {
			counts[it]++
		}
	}
	items := make([]int, 0, len(counts))
	for it := range counts {
		items = append(items, it)
	}
	sort.Slice(items, func(i, j int) bool {
		if counts[items[i]] != counts[items[j]] {
			return counts[items[i]] > counts[items[j]]
		}
		return items[i] < items[j]
	})
	if len(items) > n {
		items = items[:n]
	}
	return items
}

// distinct returns the sorted distinct items of a basket.
func distinct(items []int) []int {
	out := append([]int(nil), items...)
	sort.Ints(out)
	j := 0
	for i, it := range out {
		if i == 0 || it != out[j-1] {
			out[j] = it
			j++
		}
	}
	return out[:j]
}

// joinItems renders items comma-separated.
func joinItems(items []int) string {
	parts := make([]string, len(items))
	for i, it := range items {
		parts[i] = strconv.Itoa(it)
	}
	return strings.Join(parts, ",")
}
