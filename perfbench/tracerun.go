package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/serve"
	"repro/internal/wal"
	"repro/mining"
)

// traceMine times one mine pass by pass through the Progress hook, plus
// its allocations and the Rules and Canonical calls after it. The pass
// boundaries become assoc spans under one mining.mine span.
func (r *run) traceMine(ctx context.Context, db *mining.DB) error {
	var marks []time.Duration
	var stats []mining.PassStat
	n0, b0 := allocs()
	start := r.tr.now()
	res, err := mining.Mine(ctx, db, mining.MinSupport(r.p.minsup), mining.Workers(0),
		mining.Progress(func(p mining.PassStat) {
			marks = append(marks, r.tr.now())
			stats = append(stats, p)
		}))
	end := r.tr.now()
	n1, b1 := allocs()
	if err != nil {
		return fmt.Errorf("traced mine: %w", err)
	}
	parent := r.tr.add(0, 0, "mining.mine", start, end)
	// Pass k ends at its hook; pass 1 starts with the mine (it includes
	// Auto's probe scan) and the last span runs to the mine's end.
	bounds := []time.Duration{start}
	names := []string{"assoc.pass1", "assoc.pass2", "assoc.pass3plus"}
	for i := 0; i < 2 && i < len(marks); i++ {
		bounds = append(bounds, marks[i])
	}
	bounds = append(bounds, end)
	for i := 0; i+1 < len(bounds) && i < len(names); i++ {
		r.tr.add(parent, 0, names[i], bounds[i], bounds[i+1])
		set(r.o.layer, names[i]+"_ms", "ms", ms(bounds[i+1]-bounds[i]), 0)
	}
	for _, n := range names {
		if _, ok := r.o.layer[n+"_ms"]; !ok {
			set(r.o.layer, n+"_ms", "ms", 0, 0)
		}
	}
	cands, freq := 0, 0
	for _, s := range stats {
		cands += s.Candidates
		freq += s.Frequent
	}
	set(r.o.layer, "assoc.candidates_per_frequent", "ratio", float64(cands)/float64(max(freq, 1)), 0)
	set(r.o.layer, "assoc.mine_allocs", "count", float64(n1-n0), 0)
	set(r.o.layer, "assoc.mine_alloc_mb", "MB", float64(b1-b0)/(1<<20), 0)
	t0 := r.tr.now()
	if _, err := res.Rules(ruleFloor); err != nil {
		return err
	}
	t1 := r.tr.now()
	res.Canonical()
	t2 := r.tr.now()
	r.tr.add(0, 0, "mining.rules", t0, t1)
	r.tr.add(0, 0, "mining.canonical", t1, t2)
	set(r.o.layer, "mining.rules_ms", "ms", ms(t1-t0), 0)
	set(r.o.layer, "mining.canonical_ms", "ms", ms(t2-t1), 0)
	r.o.layer["proc.heap_peak_mb"] = metric{Value: max(r.o.layer["proc.heap_peak_mb"].Value, heapMB()), Unit: "MB"}
	return nil
}

// traceServe derives the serve-layer figures from the handler spans and
// replays the main read sequence into the query methods in process,
// classifying each call as a cache hit or miss by the counter delta.
func (r *run) traceServe(ctx context.Context) {
	spans := r.tr.snapshot()
	handler := map[int64]span{}
	byName := map[string][]float64{}
	var reads []float64
	for _, s := range spans {
		if layerOf(s.Name) != "serve" {
			continue
		}
		handler[s.Parent] = s
		d := us(s.End - s.Start)
		byName[s.Name] = append(byName[s.Name], d)
		switch s.Name {
		case "serve.handler_rules", "serve.handler_recommend", "serve.handler_support":
			reads = append(reads, d)
		}
	}
	for _, k := range []string{"rules", "recommend", "support", "append"} {
		d := newDist(byName["serve.handler_"+k])
		set(r.o.layer, "serve.handler_"+k+"_p50_us", "us", zeroNaN(d.pct(0.5)), len(d))
	}
	rd := newDist(reads)
	set(r.o.layer, "serve.handler_p99_us", "us", zeroNaN(rd.pct(0.99)), len(rd))
	var transport []float64
	for _, s := range spans {
		if h, ok := handler[s.ID]; ok && s.Name == "loadgen.request" && h.Name != "serve.handler_append" {
			transport = append(transport, us((s.End-s.Start)-(h.End-h.Start)))
		}
	}
	td := newDist(transport)
	set(r.o.layer, "serve.transport_p50_us", "us", zeroNaN(td.pct(0.5)), len(td))
	set(r.o.layer, "serve.resp_bytes_per_req", "bytes", float64(r.hs.respBytes.Load())/float64(max(len(reads), 1)), len(reads))
	set(r.o.layer, "serve.rules_per_view", "count", float64(len(r.srv.View().Rules())), 0)
	q := newDist(r.w.queueSamples())
	set(r.o.layer, "serve.queue_len_p99", "count", zeroNaN(q.pct(0.99)), len(q))
	r.o.layer["proc.heap_peak_mb"] = metric{Value: max(r.o.layer["proc.heap_peak_mb"].Value, r.w.heapPeak()), Unit: "MB"}

	var hit, miss []float64
	for _, pick := range r.mainPicks {
		if ctx.Err() != nil {
			break
		}
		qq := r.pool[pick]
		before := r.srv.Stats().CacheHits
		t0 := time.Now()
		switch qq.kind {
		case qRules:
			r.srv.TopRules(serve.RulesQuery{K: qq.k, By: serve.RankBy(qq.by), Antecedent: qq.items})
		case qRecommend:
			r.srv.Recommend(qq.items, qq.k)
		case qSupport:
			r.srv.ItemsetSupport(qq.items...)
		}
		d := us(time.Since(t0))
		if r.srv.Stats().CacheHits > before {
			hit = append(hit, d)
		} else {
			miss = append(miss, d)
		}
	}
	hd, md := newDist(hit), newDist(miss)
	set(r.o.layer, "serve.query_hit_p50_us", "us", zeroNaN(hd.pct(0.5)), len(hd))
	set(r.o.layer, "serve.query_miss_p50_us", "us", zeroNaN(md.pct(0.5)), len(md))
}

// traceLayers measures what needs the run to be over: the WAL figures
// from the timing FS, recovery of the prepared dir, the session attach,
// and a replay of the acknowledged appends into a fresh session with a
// Maintain at every op count where the server published.
func (r *run) traceLayers(ctx context.Context, prep string) error {
	writes, syncs := r.tr.named("wal.write"), r.tr.named("wal.sync")
	wd, sd := newDist(durUS(writes)), newDist(durUS(syncs))
	set(r.o.layer, "wal.write_p50_us", "us", zeroNaN(wd.pct(0.5)), len(wd))
	set(r.o.layer, "wal.sync_p50_us", "us", zeroNaN(sd.pct(0.5)), len(sd))
	set(r.o.layer, "wal.sync_p99_us", "us", zeroNaN(sd.pct(0.99)), len(sd))
	set(r.o.layer, "wal.ops_per_sync", "count", float64(len(writes))/float64(max(len(syncs), 1)), len(syncs))
	var snapMS, segBytes, snapBytes float64
	if r.wfs != nil {
		segBytes = float64(r.wfs.segBytes.Load())
		snapBytes = r.wfs.snapshotBytes()
	}
	if snaps := r.tr.named("wal.snapshot"); len(snaps) > 0 {
		snapMS = median(durMS(snaps))
	}
	set(r.o.layer, "wal.bytes_per_op", "bytes", segBytes/float64(max(len(writes), 1)), 0)
	set(r.o.layer, "wal.snapshot_ms", "ms", snapMS, len(r.tr.named("wal.snapshot")))
	set(r.o.layer, "wal.snapshot_bytes", "bytes", snapBytes, 0)
	recMS, replayed := 0.0, 0.0
	if prep != "" {
		dir := filepath.Join(r.work, "recover-prepared")
		if err := copyDir(prep, dir); err != nil {
			return err
		}
		fsys, err := wal.DirFS(dir)
		if err != nil {
			return err
		}
		t0 := r.tr.now()
		rec, err := wal.Recover(fsys)
		t1 := r.tr.now()
		if err != nil {
			return fmt.Errorf("recovering the prepared dir: %w", err)
		}
		r.tr.add(0, 0, "wal.recover", t0, t1)
		recMS, replayed = ms(t1-t0), float64(len(rec.Tail))
	}
	set(r.o.layer, "wal.recover_ms", "ms", recMS, 0)
	set(r.o.layer, "wal.replayed_ops", "count", replayed, 0)

	db, err := mining.NewDB(r.rows)
	if err != nil {
		return err
	}
	t0 := r.tr.now()
	sess, err := mining.NewSession(db, append([]mining.Option{mining.MinSupport(r.p.minsup)}, r.cfg.Options...)...)
	if err != nil {
		return err
	}
	defer sess.Close()
	if _, _, err := sess.Maintain(ctx); err != nil {
		return fmt.Errorf("attach: %w", err)
	}
	t1 := r.tr.now()
	r.tr.add(0, 0, "mining.attach", t0, t1)
	set(r.o.layer, "mining.attach_ms", "ms", ms(t1-t0), 0)

	var acked [][]int
	for _, a := range r.sent {
		if a.acked {
			acked = append(acked, a.row)
		}
	}
	var times, allocN, dirty []float64
	applied := 0
	for _, p := range r.pubs {
		if p.ops <= r.ops0 {
			continue
		}
		upto := min(int(p.ops-r.ops0), len(acked))
		for ; applied < upto; applied++ {
			if err := sess.Append(acked[applied]...); err != nil {
				return err
			}
		}
		n0, _ := allocs()
		t0 := r.tr.now()
		_, st, err := sess.Maintain(ctx)
		t1 := r.tr.now()
		n1, _ := allocs()
		if err != nil {
			return fmt.Errorf("maintain replay: %w", err)
		}
		r.tr.add(0, 0, "mining.maintain", t0, t1)
		times = append(times, ms(t1-t0))
		allocN = append(allocN, float64(n1-n0))
		dirty = append(dirty, float64(st.DirtyShards)/float64(max(st.NumShards, 1)))
	}
	md := newDist(times)
	set(r.o.layer, "mining.maintain_p50_ms", "ms", zeroNaN(md.pct(0.5)), len(md))
	set(r.o.layer, "mining.maintain_p99_ms", "ms", zeroNaN(md.pct(0.99)), len(md))
	set(r.o.layer, "mining.maintain_allocs", "count", zeroNaN(median(allocN)), len(allocN))
	set(r.o.layer, "mining.dirty_shard_frac", "ratio", zeroNaN(median(dirty)), len(dirty))
	r.o.selfTime = selfTimes(r.tr.snapshot())
	return nil
}

// durUS converts durations to microseconds.
func durUS(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, v := range d {
		out[i] = us(v)
	}
	return out
}

// durMS converts durations to milliseconds.
func durMS(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, v := range d {
		out[i] = ms(v)
	}
	return out
}

// zeroNaN maps the NaN of an empty sample to 0: the layer did no such
// work in this workload.
func zeroNaN(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}
