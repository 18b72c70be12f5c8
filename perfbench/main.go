// Command perfbench is the repository's benchmark: it runs one named
// workload against the real program — the serving stack (serve.New and
// serve.NewHTTPServer on a loopback listener, as cmd/dmserve assembles
// them) for read-hot and ingest-mixed, the public mining API for
// mine-sparse and mine-dense — checks the outputs, and prints every
// metric by name and unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}; the metrics
// are the end-to-end ones, or with -trace 1 the per-layer ones.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench -workload read-hot|ingest-mixed|mine-sparse|mine-dense
//	          -seed N -seconds S -trace 0|1 [-workdir .bench_build/perfbench]
//
// The seed makes every input (fixtures, query keys, arrival schedules);
// the program under test only receives the generated inputs. With
// -trace 1 the workload runs twice for S/2 each, untraced then traced,
// and the report prints each end-to-end metric of both runs side by
// side: the tracing overhead. See perfbench/README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// e2eMetrics and layerMetrics are the names and units reported, in
// report order; BENCHMARK.json lists the same.
var (
	e2eMetrics = [][2]string{{"setup_s", "s"}, {"op_cpu_us", "us"}, {"peak_rss_mb", "MB"}}
	// reportOnly are end-to-end figures printed in the report, on the
	// workloads that measure them, but not in the result: wall-clock
	// times, latencies and ladders, whose run-to-run spread on a shared
	// virtual machine is set by the hypervisor's steal and the shared
	// disk's fsync latency rather than by the program (see README.md).
	reportOnly = [][2]string{
		{"setup_wall_s", "s"}, {"mine_s", "s"}, {"read_p50_us", "us"}, {"read_p99_us", "us"},
		{"read_max_qps", "req/s"}, {"ack_p50_us", "us"}, {"ack_p99_us", "us"},
		{"visible_p50_ms", "ms"}, {"visible_p99_ms", "ms"}, {"ingest_max_ops_per_s", "ops/s"},
	}
	layerMetrics = [][2]string{
		{"serve.handler_rules_p50_us", "us"}, {"serve.handler_recommend_p50_us", "us"},
		{"serve.handler_support_p50_us", "us"}, {"serve.handler_p99_us", "us"},
		{"serve.transport_p50_us", "us"}, {"serve.resp_bytes_per_req", "bytes"},
		{"serve.query_hit_p50_us", "us"}, {"serve.query_miss_p50_us", "us"},
		{"serve.cache_hit_ratio", "ratio"}, {"serve.rules_per_view", "count"},
		{"serve.handler_append_p50_us", "us"}, {"serve.queue_len_p99", "count"},
		{"serve.ops_per_publish", "count"}, {"serve.full_run_frac", "ratio"},
		{"serve.ack_to_visible_p50_ms", "ms"},
		{"wal.write_p50_us", "us"}, {"wal.sync_p50_us", "us"}, {"wal.sync_p99_us", "us"},
		{"wal.ops_per_sync", "count"}, {"wal.bytes_per_op", "bytes"},
		{"wal.snapshot_ms", "ms"}, {"wal.snapshot_bytes", "bytes"},
		{"wal.recover_ms", "ms"}, {"wal.replayed_ops", "count"},
		{"mining.attach_ms", "ms"}, {"mining.maintain_p50_ms", "ms"}, {"mining.maintain_p99_ms", "ms"},
		{"mining.maintain_allocs", "count"}, {"mining.dirty_shard_frac", "ratio"},
		{"mining.rules_ms", "ms"}, {"mining.canonical_ms", "ms"},
		{"assoc.pass1_ms", "ms"}, {"assoc.pass2_ms", "ms"}, {"assoc.pass3plus_ms", "ms"},
		{"assoc.candidates_per_frequent", "ratio"}, {"assoc.mine_allocs", "count"},
		{"assoc.mine_alloc_mb", "MB"},
		{"transactions.parse_ms", "ms"}, {"transactions.parse_mb_per_s", "MB/s"},
		{"proc.cpu_us_per_op", "us"}, {"proc.gc_cycles", "count"}, {"proc.gc_pause_p99_us", "us"},
		{"proc.heap_peak_mb", "MB"},
		{"loadgen.late_p99_us", "us"},
	}
)

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	code, err := mainErr(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// mainErr runs the benchmark and returns the exit code: 0 when every
// output check passed, 1 when one failed (after printing the result)
// or the run could not complete (without a result), 2 on bad flags.
func mainErr(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "perfbench"), "scratch directory for data dirs and traces")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	var p *plan
	for i := range plans {
		if plans[i].name == *name {
			p = &plans[i]
		}
	}
	if p == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		return 2, fmt.Errorf("need -workload (read-hot, ingest-mixed, mine-sparse or mine-dense), -seconds >= 1 and -trace 0 or 1")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()

	work := filepath.Join(*workdir, fmt.Sprintf("%s-%d-%d", p.name, *seed, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return 1, err
	}
	defer os.RemoveAll(work)
	extra := 0
	if p.kind == kindIngest {
		extra = p.tail + 8000
	}
	fx, err := makeFixture(p.d, extra, p.items, *seed)
	if err != nil {
		return 1, fmt.Errorf("generating fixture: %w", err)
	}
	secs := time.Duration(*seconds) * time.Second
	stamp := map[string]any{
		"workload": p.name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"commit": commit(), "go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0), "numcpu": runtime.NumCPU(),
		"fixture":       fixtureDesc(*p, extra),
		"flush_policy":  flushPolicy(*p),
		"data_dir_fs":   fsType(*workdir),
		"load":          "open loop from one process, at most 2 connections (Poisson reads, fixed-rate appends)",
		"read_limit_us": us(readLimit), "ack_limit_us": us(ackLimit),
	}
	var out *outcome
	if *trace == 0 {
		if out, err = runWorkload(ctx, *p, *seed, secs, work, fx, nil); err != nil {
			return 1, err
		}
		report(stdout, stamp, out, nil)
	} else {
		plain, err := runWorkload(ctx, *p, *seed, secs/2, filepath.Join(work, "untraced"), fx, nil)
		if err != nil {
			return 1, err
		}
		tr := newTracer()
		if out, err = runWorkload(ctx, *p, *seed, secs/2, filepath.Join(work, "traced"), fx, tr); err != nil {
			return 1, err
		}
		out.attempted += plain.attempted
		out.failed += plain.failed
		out.shed += plain.shed
		out.errs = append(out.errs, plain.errs...)
		spans := filepath.Join(*workdir, fmt.Sprintf("trace-%s-%d.jsonl", p.name, *seed))
		if err := tr.write(spans); err != nil {
			return 1, fmt.Errorf("writing spans: %w", err)
		}
		stamp["spans"] = spans
		report(stdout, stamp, out, plain)
	}

	res := result{Correct: len(out.errs) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	names, from := e2eMetrics, out.e2e
	if *trace == 1 {
		names, from = layerMetrics, out.layer
	}
	for _, nu := range names {
		m, ok := from[nu[0]]
		if !ok && *trace == 1 {
			m = metric{} // the layer did no such work in this workload
		} else if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return 1, fmt.Errorf("metric %s was not measured", nu[0])
		}
		res.Metrics[nu[0]] = metric{Value: m.Value, Unit: nu[1]}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1, errors.Join(out.errs...)
	}
	return 0, nil
}

// fixtureDesc describes the workload's generated inputs.
func fixtureDesc(p plan, extra int) string {
	d := fmt.Sprintf("T10.I4.D%d, %d items, minsup %g, rule floor %g", p.d, p.items, p.minsup, ruleFloor)
	switch p.kind {
	case kindIngest:
		d += fmt.Sprintf(", %d of %d further baskets from the same stream in the prepared WAL tail, the rest appended", p.tail, extra)
	case kindMine:
		d += fmt.Sprintf("; mined with %d more databases of the same shape on derived seeds", p.mineSets-1)
	}
	return d
}

// flushPolicy describes the workload's durability setting.
func flushPolicy(p plan) string {
	if p.kind == kindMine {
		return "none (no server)"
	}
	if p.durable {
		return "WAL fsync=always, recovered from a snapshot plus a log tail"
	}
	return "in memory (dmserve default, no WAL)"
}

// report prints the stamped human-readable report: every metric with
// its unit and sample count, the checks, and for a traced run the
// per-layer self times and the untraced run's end-to-end figures beside
// the traced ones.
func report(w io.Writer, stamp map[string]any, out, untraced *outcome) {
	st, _ := json.Marshal(stamp)
	fmt.Fprintf(w, "stamp %s\n", st)
	line := func(kind, name string, m metric) {
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("  (n=%d)", m.N)
		}
		fmt.Fprintf(w, "%-6s %-34s %14.4f %-6s%s\n", kind, name, m.Value, m.Unit, n)
	}
	for _, nu := range e2eMetrics {
		line("e2e", nu[0], out.e2e[nu[0]])
	}
	for _, nu := range reportOnly {
		if m, ok := out.e2e[nu[0]]; ok {
			line("report", nu[0], m)
		}
	}
	for _, nu := range layerMetrics {
		if m, ok := out.layer[nu[0]]; ok {
			line("layer", nu[0], m)
		}
	}
	if untraced != nil {
		fmt.Fprintf(w, "tracing overhead: end-to-end metric, untraced run, traced run, traced/untraced\n")
		for _, nu := range append(e2eMetrics, reportOnly...) {
			if _, ok := out.e2e[nu[0]]; !ok {
				continue
			}
			a, b := untraced.e2e[nu[0]].Value, out.e2e[nu[0]].Value
			fmt.Fprintf(w, "overhead %-24s %14.4f %14.4f %8.3f\n", nu[0], a, b, b/a)
		}
		var layers []string
		for l := range out.selfTime {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		for _, l := range layers {
			fmt.Fprintf(w, "self   %-34s %14.4f ms\n", l, ms(out.selfTime[l]))
		}
	}
	for _, i := range out.info {
		fmt.Fprintf(w, "info   %s\n", i)
	}
	for _, c := range out.checks {
		fmt.Fprintf(w, "check  ok    %s\n", c)
	}
	for _, e := range out.errs {
		fmt.Fprintf(w, "check  FAIL  %s\n", strings.ReplaceAll(e.Error(), "\n", " "))
	}
	fmt.Fprintf(w, "ops    attempted=%d failed=%d error_frac=%.6f ladder_shed=%d\n", out.attempted, out.failed, float64(out.failed)/float64(max(out.attempted, 1)), out.shed)
}
