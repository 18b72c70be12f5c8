// Package experiments regenerates every table and figure of the
// reproduction's experiment index (`dmbench -list`): the canonical
// evaluations of the algorithms the SIGMOD'96 tutorial surveys. Each
// experiment prints a plain-text table shaped like its source figure;
// cmd/dmbench is the CLI front end and README "Reading the BENCH_*.json
// baselines" explains the measured results. The engine-trajectory
// experiments additionally persist machine-readable
// baselines: EXP-P1 writes BENCH_parallel.json (count-distribution scaling
// and Eclat layouts), EXP-P2 writes BENCH_incremental.json (dirty-shard
// maintenance vs full re-mining), EXP-P3 writes BENCH_fpgrowth.json
// (pattern growth vs candidate generation across a support ladder), and
// EXP-P4 writes BENCH_dist.json (distributed shard-shipping overhead vs
// local counting, with transport traffic counters), EXP-F1 writes
// BENCH_faults.json (fault-free cost of the retry/deadline layer plus the
// recovery cost of one worker death), EXP-SV1 writes BENCH_serve.json
// (serving-tier QPS and latency percentiles under a live update stream,
// every sampled snapshot replay-verified against a from-scratch mine),
// and EXP-D1 writes BENCH_durable.json (per-fsync-policy durable ingest
// cost and crash-recovery time vs log length and snapshot interval).
// Every baseline records
// heap allocations (alloc_bytes, allocs) alongside wall-clock so memory
// regressions show up in the trajectory too.
package experiments

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"
)

// Scale selects workload sizes.
type Scale int

const (
	// Quick runs in seconds; used by tests and -quick.
	Quick Scale = iota
	// Full approximates the papers' (scaled-down) workloads.
	Full
)

// Experiment is one reproducible table/figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer, s Scale) error
}

// ErrUnknown reports a bad experiment id.
var ErrUnknown = errors.New("experiments: unknown experiment id")

// All returns the registry in run order.
func All() []Experiment {
	return []Experiment{
		{ID: "A1", Title: "Execution time vs minimum support (VLDB'94 Fig. 4)", Run: RunA1},
		{ID: "A2", Title: "Per-pass candidate and frequent itemset counts (VLDB'94)", Run: RunA2},
		{ID: "A3", Title: "Scale-up: number of transactions (VLDB'94 Fig. 6)", Run: RunA3},
		{ID: "A4", Title: "Scale-up: transaction size (VLDB'94 Fig. 7)", Run: RunA4},
		{ID: "A5", Title: "Partition: partitions vs time (VLDB'95)", Run: RunA5},
		{ID: "A6", Title: "Eclat and Sampling vs Apriori", Run: RunA6},
		{ID: "S1", Title: "GSP vs AprioriAll (EDBT'96)", Run: RunS1},
		{ID: "C1", Title: "k-medoid family: time and cost vs n (CLARANS, VLDB'94)", Run: RunC1},
		{ID: "C2", Title: "DBSCAN vs k-means on non-convex shapes (KDD'96)", Run: RunC2},
		{ID: "C3", Title: "BIRCH vs k-means: time and quality vs n (SIGMOD'96)", Run: RunC3},
		{ID: "C4", Title: "Hierarchical linkage comparison", Run: RunC4},
		{ID: "T1", Title: "Classifier accuracy on benchmark functions (cross-validated)", Run: RunT1},
		{ID: "T2", Title: "Decision-tree pruning ablation", Run: RunT2},
		{ID: "T3", Title: "Decision-tree training time vs examples (SLIQ-style)", Run: RunT3},
		{ID: "K1", Title: "k-d tree vs brute-force query time", Run: RunK1},
		{ID: "R1", Title: "Rule extraction from decision trees", Run: RunR1},
		{ID: "Q1", Title: "Quantitative association rules (SIGMOD'96)", Run: RunQ1},
		{ID: "E1", Title: "Bagging and boosting vs single trees", Run: RunE1},
		{ID: "P1", Title: "Parallel count-distribution scaling and Eclat layouts", Run: RunP1},
		{ID: "P2", Title: "Incremental maintenance: dirty-shard re-count vs full re-mine", Run: RunP2},
		{ID: "P3", Title: "Pattern growth (FP-growth) vs candidate generation across supports", Run: RunP3},
		{ID: "P4", Title: "Distributed mining: serialization and merge overhead vs local", Run: RunP4},
		{ID: "F1", Title: "Fault tolerance: fault-free overhead and failover recovery", Run: RunF1},
		{ID: "SV1", Title: "Serving tier: concurrent reads under a live update stream", Run: RunSV1},
		{ID: "D1", Title: "Durable serving: fsync-policy ingest cost and crash-recovery time", Run: RunD1},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("%w: %q", ErrUnknown, id)
}

// IDs returns all experiment ids sorted.
func IDs() []string {
	var out []string
	for _, e := range All() {
		out = append(out, e.ID)
	}
	sort.Strings(out)
	return out
}

// timeIt measures fn's wall-clock duration.
func timeIt(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}

// AllocStats records the heap allocation delta of one measured run —
// the B/op and allocs/op columns of the BENCH_*.json baselines. Memory
// regressions are as real a perf trajectory as wall-clock, so every
// emitter records both.
type AllocStats struct {
	// Bytes is the total heap bytes allocated during the run.
	Bytes uint64 `json:"alloc_bytes"`
	// Allocs is the number of heap allocations during the run.
	Allocs uint64 `json:"allocs"`
}

// timeItAlloc measures fn's wall-clock duration and heap allocation delta
// (via runtime.MemStats, so allocations on every goroutine fn spawns are
// included).
func timeItAlloc(fn func() error) (time.Duration, AllocStats, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	runtime.ReadMemStats(&m1)
	return d, AllocStats{Bytes: m1.TotalAlloc - m0.TotalAlloc, Allocs: m1.Mallocs - m0.Mallocs}, err
}

// ms renders a duration in milliseconds with sensible precision.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000.0)
}

// header prints the experiment banner.
func header(w io.Writer, e string, title string) {
	fmt.Fprintf(w, "== EXP-%s: %s ==\n", e, title)
}
