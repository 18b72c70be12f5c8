package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/mining"
)

// TestOpenLoopChargesStall injects one 100ms stall into a 1 kHz stream
// served by a single worker: every request due during the stall must be
// charged the wait from its due time (no coordinated omission), and the
// generator's lateness must report the stall.
func TestOpenLoopChargesStall(t *testing.T) {
	const stall = 100 * time.Millisecond
	st := &stream{name: "read", workers: 1, due: fixedSchedule(1000, 300*time.Millisecond)}
	st.do = func(ctx context.Context, i int) error {
		if i == 50 {
			time.Sleep(stall)
		}
		return nil
	}
	runStreams(context.Background(), st)
	stallEnd := st.shots[50].end
	charged := 0
	for i, s := range st.shots[51:] {
		if s.due >= stallEnd {
			break
		}
		if want := stallEnd - s.due; s.latency() < want {
			t.Fatalf("request %d due %v during the stall has latency %v, want >= %v", 51+i, s.due, s.latency(), want)
		}
		charged++
	}
	if charged < 90 {
		t.Fatalf("only %d requests were due during the stall, want about 100", charged)
	}
	if late := lateP99(st.shots); late < us(stall/2) {
		t.Fatalf("loadgen late p99 = %.0fus, want the stall (>= %v) to show", late, stall/2)
	}
	if _, p99, _ := windowed(st.shots); p99 < us(stall/2) {
		t.Fatalf("p99 = %.0fus hides the stall", p99)
	}
}

// TestFailedRequestCountsAsError checks that a failed request counts in
// the failed total (and so in error_frac) and as over every latency
// limit, however fast it failed.
func TestFailedRequestCountsAsError(t *testing.T) {
	st := &stream{name: "read", workers: 2, due: fixedSchedule(2000, 100*time.Millisecond)}
	st.do = func(ctx context.Context, i int) error {
		if i%10 == 0 {
			return errors.New("refused")
		}
		return nil
	}
	start := runStreams(context.Background(), st)
	want := 0
	for i := range st.shots {
		if i%10 == 0 {
			want++
		}
	}
	over := 0
	for _, l := range latencies(st.shots) {
		if l > us(time.Hour) {
			over++
		}
	}
	if over != want {
		t.Fatalf("%d shots over a one-hour limit, want the %d failed ones", over, want)
	}
	if rungOK(st.shots, time.Hour, 100*time.Millisecond) {
		t.Fatal("a rung with failed requests passed")
	}
	r := &run{o: &outcome{}}
	r.account(start, st, 0, false)
	if r.o.failed != want || r.o.attempted != len(st.shots) {
		t.Fatalf("failed=%d attempted=%d, want %d of %d", r.o.failed, r.o.attempted, want, len(st.shots))
	}
}

// TestSelfTimeOverlappingChildren checks the self-time rule: a span's
// self time is its length minus the union of its children's intervals,
// clipped to it, when children overlap each other and outlive it.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "serve.handler_rules", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "wal.write", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "wal.sync", Start: 30 * ms, End: 60 * ms},
		{ID: 4, Parent: 1, Name: "wal.sync", Start: 90 * ms, End: 120 * ms},
		{ID: 5, Parent: 2, Name: "mining.maintain", Start: 15 * ms, End: 25 * ms},
	}
	got := selfTimes(spans)
	// serve: 100 - |[10,60] u [90,100]| = 40; wal: (30-10) + 30 + 30;
	// mining: 10.
	want := map[string]time.Duration{"serve": 40 * ms, "wal": 80 * ms, "mining": 10 * ms}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("self time of %s = %v, want %v", layer, got[layer], w)
		}
	}
}

// TestTamperedByteIsCaught checks that every output check fails on one
// changed byte: canonical bytes, a served read response, and the rows a
// WAL recovery returns.
func TestTamperedByteIsCaught(t *testing.T) {
	rows := [][]int{{1, 2, 3}, {1, 2}, {2, 3}, {1, 3}, {1, 2, 3}, {4}}
	ref, err := mineReference(context.Background(), rows, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	canon := ref.res.Canonical()
	if err := checkCanonical("same", canon, append([]byte(nil), canon...)); err != nil {
		t.Fatalf("identical bytes rejected: %v", err)
	}
	for _, i := range []int{0, len(canon) / 2, len(canon) - 1} {
		bad := append([]byte(nil), canon...)
		bad[i] ^= 1
		if checkCanonical("tampered", bad, canon) == nil {
			t.Fatalf("flipped byte %d of the canonical bytes went unnoticed", i)
		}
	}

	q := query{kind: qRules, k: 5, by: "lift", path: "/v1/rules?k=5&by=lift"}
	body, err := json.Marshal(wireRules{Version: 3, NumTx: len(rows), Rules: toWire(refTopRules(ref.rules, q))})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.rules) == 0 {
		t.Fatal("fixture has no rules to serve")
	}
	if err := checkSample(q, 3, body, ref); err != nil {
		t.Fatalf("correct response rejected: %v", err)
	}
	at := bytes.Index(body, []byte(`"support":`)) + len(`"support":`)
	bad := append([]byte(nil), body...)
	if bad[at] == '9' {
		bad[at] = '8'
	} else {
		bad[at]++
	}
	if checkSample(q, 3, bad, ref) == nil {
		t.Fatalf("tampered response %s went unnoticed", bad)
	}
	if checkSample(q, 4, body, ref) == nil {
		t.Fatal("a response answered from another version went unnoticed")
	}

	got := [][]int{{1, 2, 3}, {1, 2}}
	if err := checkRows("rows", got, [][]int{{1, 2, 3}, {1, 2}}); err != nil {
		t.Fatalf("equal rows rejected: %v", err)
	}
	if checkRows("rows", got, [][]int{{1, 2, 3}, {1, 5}}) == nil {
		t.Fatal("a tampered recovered row went unnoticed")
	}
}

// TestQueryPoolIsSeeded checks that the inputs come from the seed: the
// same seed gives the same read keys and Zipf picks, another seed not.
func TestQueryPoolIsSeeded(t *testing.T) {
	fx, err := makeFixture(300, 10, 50, 7)
	if err != nil {
		t.Fatal(err)
	}
	keys := func(seed int64) string {
		rng := rand.New(rand.NewSource(seed))
		pool := queryPool(rng, fx.base, 64)
		var b strings.Builder
		for _, i := range zipfPicks(rng, len(pool), 32) {
			b.WriteString(pool[i].path)
		}
		return b.String()
	}
	if keys(1) != keys(1) {
		t.Fatal("same seed, different read keys")
	}
	if keys(1) == keys(2) {
		t.Fatal("different seeds, same read keys")
	}
	again, err := makeFixture(300, 10, 50, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fx.raw, again.raw) {
		t.Fatal("same seed, different fixture bytes")
	}
	if _, err := mining.ReadBasket(bytes.NewReader(fx.raw)); err != nil {
		t.Fatalf("fixture bytes do not parse: %v", err)
	}
}

// TestAppendVisibilityIsExact sends appends to an in-memory server that
// publishes only on flush. In memory an append is acknowledged once it
// is queued, before it is applied, so the server's op counter can lag
// an acknowledgement; each append's sequence must still be exact, and
// every append must map to the view the flush published, never to one
// published before it was applied.
func TestAppendVisibilityIsExact(t *testing.T) {
	ctx := context.Background()
	fx, err := makeFixture(300, 200, 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	db, err := mining.NewDB(fx.base)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(db, serve.Config{MinSupport: 0.05, MaintainAfter: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs, err := startHTTP(srv, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer hs.stop()
	r := &run{p: plan{kind: kindIngest, minsup: 0.05}, fx: fx, rows: fx.base, srv: srv,
		o: &outcome{e2e: map[string]metric{}, layer: map[string]metric{}}}
	r.w = watch(srv, false)
	defer r.w.close()
	r.ops0 = srv.Stats().Ops
	c := newClient(hs.base, 1, nil)
	defer c.close()
	ap, first := r.appendStream(c, 1000, 150*time.Millisecond, true)
	r.account(runStreams(ctx, ap), ap, first, false)
	if r.o.failed > 0 {
		t.Fatalf("%d appends failed", r.o.failed)
	}
	flushed := time.Now()
	var buf bytes.Buffer
	if _, err := c.do(ctx, "POST", "/v1/flush", nil, &buf); err != nil {
		t.Fatal(err)
	}
	want := r.ops0 + uint64(len(r.sent))
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, ok := visibleAt(r.w.snapshot(), want); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the flushed view never showed up")
		}
	}
	pubs := r.w.snapshot()
	for i, a := range r.sent {
		if !a.acked || a.seq != r.ops0+uint64(i+1) {
			t.Fatalf("append %d: acked %v at sequence %d, want sequence %d", i, a.acked, a.seq, r.ops0+uint64(i+1))
		}
		at, ok := visibleAt(pubs, a.seq)
		if !ok || at.Before(flushed) {
			t.Fatalf("append %d (sequence %d) maps to a view published at %v, before the flush at %v", i, a.seq, at, flushed)
		}
	}
	if _, err := r.ackedRows(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckArm checks that the pass statistics tell Auto's two arms
// apart: Apriori counts every pair of frequent items in pass 2, FPGrowth
// does not.
func TestCheckArm(t *testing.T) {
	fx, err := makeFixture(2000, 0, 60, 4)
	if err != nil {
		t.Fatal(err)
	}
	db, err := mining.NewDB(fx.base)
	if err != nil {
		t.Fatal(err)
	}
	for algo, arm := range map[string]string{"Apriori": levelWise, "FPGrowth": patternGrowth} {
		res, err := mining.Mine(context.Background(), db, mining.MinSupport(0.02), mining.Algorithm(algo))
		if err != nil {
			t.Fatal(err)
		}
		if err := checkArm(res, arm); err != nil {
			t.Errorf("%s: %v", algo, err)
		}
		other := levelWise
		if arm == levelWise {
			other = patternGrowth
		}
		if checkArm(res, other) == nil {
			t.Errorf("%s passed as %s", algo, other)
		}
	}
}

// TestRunWorkloadSmoke runs three miniature workloads end to end against
// the real server and the mining API — a durable ingest one traced, a
// read one and a mine one untraced — and requires every output check to
// pass and every end-to-end metric to be measured.
func TestRunWorkloadSmoke(t *testing.T) {
	ingest := plan{name: "smoke-ingest", kind: kindIngest, d: 400, items: 40, minsup: 0.05, durable: true, tail: 40, pool: 64,
		readRate: 100, appendRate: 100, ladderBase: 100, setup: 0.1, main: 0.6, ladder: 0.2}
	reads := plan{name: "smoke-reads", kind: kindReads, d: 400, items: 40, minsup: 0.05, pool: 64,
		readRate: 200, ladderBase: 200, setup: 0.1, main: 0.5, ladder: 0.2}
	mine := plan{name: "smoke-mine", kind: kindMine, d: 400, items: 40, minsup: 0.05,
		setup: 0.1, main: 0.4, second: "FPGrowth", arm: levelWise, mineSets: 2}
	for _, tc := range []struct {
		p      plan
		tr     *tracer
		report []string
	}{
		{ingest, newTracer(), []string{"read_p50_us", "ack_p99_us", "visible_p50_ms", "visible_p99_ms", "ingest_max_ops_per_s"}},
		{reads, nil, []string{"read_p50_us", "read_p99_us", "read_max_qps"}},
		{mine, nil, []string{"mine_s"}},
	} {
		extra := 0
		if tc.p.kind == kindIngest {
			extra = tc.p.tail + 2000
		}
		fx, err := makeFixture(tc.p.d, extra, tc.p.items, 3)
		if err != nil {
			t.Fatal(err)
		}
		out, err := runWorkload(context.Background(), tc.p, 3, 2*time.Second, t.TempDir(), fx, tc.tr)
		if err != nil {
			t.Fatalf("%s: %v", tc.p.name, err)
		}
		if len(out.errs) > 0 {
			t.Fatalf("%s: output checks failed: %v", tc.p.name, errors.Join(out.errs...))
		}
		names := tc.report
		for _, nu := range e2eMetrics {
			names = append(names, nu[0])
		}
		for _, name := range names {
			if m, ok := out.e2e[name]; !ok || m.Value != m.Value || m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, %v", tc.p.name, name, m.Value, ok)
			}
		}
		if tc.tr != nil {
			for _, name := range []string{"wal.sync_p50_us", "mining.maintain_p50_ms", "serve.handler_rules_p50_us", "assoc.pass1_ms"} {
				if out.layer[name].Value <= 0 {
					t.Errorf("%s: per-layer metric %s = %v", tc.p.name, name, out.layer[name].Value)
				}
			}
		}
	}
}
