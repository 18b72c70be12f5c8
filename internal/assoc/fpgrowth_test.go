package assoc

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/synth"
	"repro/internal/transactions"
)

// TestFPGrowthMatchesAprioriProperty is the acceptance property of the
// pattern-growth engine: FPGrowth's canonical result bytes equal Apriori's
// on random databases, at workers 1, 2 and 8.
func TestFPGrowthMatchesAprioriProperty(t *testing.T) {
	f := func(seed int64, minRaw uint8) bool {
		db := randomDB(seed)
		minSup := 0.05 + float64(minRaw%70)/100.0
		want, err := (&Apriori{}).Mine(db, minSup)
		if err != nil {
			t.Logf("Apriori: %v", err)
			return false
		}
		for _, workers := range []int{1, 2, 8} {
			got, err := (&FPGrowth{Workers: workers}).Mine(db, minSup)
			if err != nil {
				t.Logf("FPGrowth workers=%d: %v", workers, err)
				return false
			}
			if !bytes.Equal(got.Canonical(), want.Canonical()) {
				t.Logf("FPGrowth workers=%d diverges (seed %d minSup %v)\n got %s\nwant %s",
					workers, seed, minSup, got.Canonical(), want.Canonical())
				return false
			}
			if got.MinCount != want.MinCount || got.NumTx != want.NumTx {
				t.Logf("FPGrowth workers=%d: MinCount/NumTx diverge", workers)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestFPGrowthMatchesAprioriSynthetic pins byte-identity on Quest
// workloads at workers 1, 2 and 8. The T10.I4.D800 input is deep enough to
// exercise multi-level conditional trees and the single-path shortcut. The
// second input is a scaled-down mine-dense shape (T10.I4.D2K over 1000
// items) at a support where Auto picks pattern growth: hundreds of
// frequent items give a bushy tree whose root and upper nodes fan out
// wide and whose preorder build keeps deep node stacks.
func TestFPGrowthMatchesAprioriSynthetic(t *testing.T) {
	if testing.Short() {
		t.Skip("synthetic workload")
	}
	deep, err := synth.Baskets(synth.TxI(10, 4, 800, 94))
	if err != nil {
		t.Fatal(err)
	}
	bushy, err := synth.Baskets(synth.T10I4(2000, 95))
	if err != nil {
		t.Fatal(err)
	}
	auto := &Auto{}
	if _, err := auto.Select(bushy, 0.004); err != nil || auto.Selected() != "FPGrowth" {
		t.Fatalf("Auto on the bushy input picks %q (err %v), want FPGrowth", auto.Selected(), err)
	}
	for _, in := range []struct {
		name    string
		db      *transactions.DB
		minSups []float64
	}{
		{"T10.I4.D800", deep, []float64{0.05, 0.01, 0.005}},
		{"T10.I4.D2K/1000 items", bushy, []float64{0.004}},
	} {
		for _, minSup := range in.minSups {
			want, err := (&Apriori{}).Mine(in.db, minSup)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 8} {
				got, err := (&FPGrowth{Workers: workers}).Mine(in.db, minSup)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Canonical(), want.Canonical()) {
					t.Errorf("%s: FPGrowth workers=%d at minsup %v diverges from Apriori", in.name, workers, minSup)
				}
			}
		}
	}
}

// TestRegistrySparseLevelWise is the level-wise counterpart of the
// bushy input above: a scaled-down mine-sparse shape (T10.I4 over 500
// items) at a support where Auto stays level-wise and passes 3 to 6 run
// through the candidate hash tree. Every engine that counts through it —
// Apriori, Auto, Distributed, and AprioriTid and DHP via Apriori{} — must
// give FPGrowth's bytes at workers 1, 2 and 8. At D2K no support both
// keeps Auto level-wise (|L1|^2/2 <= 4|D|) and reaches pass 3, so the
// input is D8K with 150 patterns.
func TestRegistrySparseLevelWise(t *testing.T) {
	if testing.Short() {
		t.Skip("synthetic workload")
	}
	cfg := synth.T10I4(8000, 96)
	cfg.NumItems = 500
	cfg.NumPatterns = 150
	db, err := synth.Baskets(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const minSup = 0.01
	auto := &Auto{}
	if _, err := auto.Select(db, minSup); err != nil || auto.Selected() != "Apriori" {
		t.Fatalf("Auto on the sparse input picks %q (err %v), want Apriori", auto.Selected(), err)
	}
	want, err := (&FPGrowth{}).Mine(db, minSup)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Levels) < 5 {
		t.Fatalf("sparse input mines %d levels, want passes 3 and 4 to find itemsets", len(want.Levels))
	}
	for _, workers := range []int{1, 2, 8} {
		for _, m := range []Miner{&Apriori{}, &Auto{}, &Distributed{}, &AprioriTid{}, &DHP{}} {
			if ws, ok := m.(WorkerSetter); ok {
				ws.SetWorkers(workers)
			}
			got, err := m.Mine(db, minSup)
			if d, ok := m.(*Distributed); ok {
				d.Close()
			}
			if err != nil {
				t.Fatalf("%s workers=%d: %v", m.Name(), workers, err)
			}
			if !bytes.Equal(got.Canonical(), want.Canonical()) {
				t.Errorf("%s workers=%d diverges from FPGrowth", m.Name(), workers)
			}
		}
	}
}

// TestFPGrowthPassStats pins the pass-stat shape: pass 1 reports the item
// scan, later passes mirror the frequent counts (pattern growth has no
// candidate sets), and levels agree with the stats.
func TestFPGrowthPassStats(t *testing.T) {
	db := paperDB(t)
	res, err := (&FPGrowth{}).Mine(db, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Passes[0].K != 1 || res.Passes[0].Candidates != db.NumItems() {
		t.Fatalf("pass 1 = %+v", res.Passes[0])
	}
	if len(res.Passes) != len(res.Levels) {
		t.Fatalf("%d passes for %d levels", len(res.Passes), len(res.Levels))
	}
	for i, p := range res.Passes {
		if p.Frequent != len(res.Levels[i]) {
			t.Errorf("pass %d: Frequent = %d, level has %d", p.K, p.Frequent, len(res.Levels[i]))
		}
	}
}

// TestPartitionWithFPGrowthLocalMiner checks phase 1 through the
// pattern-growth engine finds the same global answer, serial and parallel.
func TestPartitionWithFPGrowthLocalMiner(t *testing.T) {
	db, err := synth.Baskets(synth.TxI(8, 3, 400, 17))
	if err != nil {
		t.Fatal(err)
	}
	want, err := (&Partition{NumPartitions: 4}).Mine(db, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 4} {
		p := &Partition{NumPartitions: 4, LocalMiner: &FPGrowth{}, Workers: workers}
		got, err := p.Mine(db, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Levels, want.Levels) {
			t.Errorf("workers=%d: Partition(FPGrowth local) diverges from tid-list local mining", workers)
		}
	}
}

// TestAutoDispatch pins the Auto heuristic's three arms and that Selected
// reports the engine used.
func TestAutoDispatch(t *testing.T) {
	a := &Auto{}
	if a.Selected() != "" {
		t.Fatalf("Selected before Mine = %q", a.Selected())
	}

	// Dense small universe (>= AutoMinDenseItems frequent items, high mean
	// density) → bitset Eclat.
	dense := transactions.NewDB()
	for i := 0; i < 200; i++ {
		if err := dense.Add(i%10, 10+i%5); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Mine(dense, 0.05); err != nil {
		t.Fatal(err)
	}
	if a.Selected() != "Eclat(bitset)" {
		t.Errorf("dense: selected %q, want Eclat(bitset)", a.Selected())
	}

	// Sparse, huge frequent universe relative to the database → FPGrowth.
	sparse := transactions.NewDB()
	for i := 0; i < 40; i++ {
		tx := make([]int, 0, 8)
		for j := 0; j < 8; j++ {
			tx = append(tx, (i*977+j*5003)%4000)
		}
		if err := sparse.Add(tx...); err != nil {
			t.Fatal(err)
		}
	}
	m, err := a.Select(sparse, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.(*FPGrowth); !ok {
		t.Errorf("sparse low-support: selected %q, want FPGrowth", a.Selected())
	}

	// Tiny frequent universe → Apriori.
	small := paperDB(t)
	if _, err := a.Mine(small, 0.5); err != nil {
		t.Fatal(err)
	}
	if a.Selected() != "Apriori" {
		t.Errorf("small: selected %q, want Apriori", a.Selected())
	}

	// Dispatch must not change results.
	db, err := synth.Baskets(synth.TxI(8, 3, 300, 5))
	if err != nil {
		t.Fatal(err)
	}
	want, err := (&Apriori{}).Mine(db, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	got, err := (&Auto{Workers: 2}).Mine(db, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Canonical(), want.Canonical()) {
		t.Error("Auto result diverges from Apriori")
	}
}
