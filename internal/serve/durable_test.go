package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/wal"
)

// foldOps replays ops over initial rows with the exact store semantics
// apply has: appends with a negative item are rejected, deletes out of
// range are rejected, both still advance the sequence. The independent
// oracle of every durability test.
func foldOps(initial [][]int, ops []Op) [][]int {
	rows := make([][]int, len(initial))
	copy(rows, initial)
	for _, op := range ops {
		switch op.Kind {
		case OpAppend:
			ok := true
			for _, it := range op.Items {
				if it < 0 {
					ok = false
				}
			}
			if ok {
				rows = append(rows, op.Items)
			}
		case OpDelete:
			if op.TID >= 0 && op.TID < len(rows) {
				rows = append(rows[:op.TID:op.TID], rows[op.TID+1:]...)
			}
		}
	}
	return rows
}

// randomOp draws one op: mostly valid appends, some deletes, a sprinkle
// of store-invalid ops (negative items, wild TIDs) that must round-trip
// the WAL as sequence-advancing no-ops.
func randomOp(rng *rand.Rand, live int) Op {
	switch rng.Intn(10) {
	case 0:
		return Op{Kind: OpDelete, TID: rng.Intn(live + 1)}
	case 1:
		return Op{Kind: OpAppend, Items: []int{-1, 3}} // store rejects
	case 2:
		return Op{Kind: OpDelete, TID: live + 100} // out of range
	default:
		pair := rng.Intn(8) * 2
		return Op{Kind: OpAppend, Items: []int{pair, pair + 1, rng.Intn(16)}}
	}
}

func TestDurableRestartRoundTrip(t *testing.T) {
	fs := wal.NewMemFS()
	rows := fixtureRows(60, 16, 3)
	srv := newTestServer(t, rows, Config{FS: fs, SnapshotEvery: 7})
	if !srv.Durable() {
		t.Fatal("server with FS not durable")
	}
	ctx := context.Background()
	var sent []Op
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 25; i++ {
		op := randomOp(rng, len(rows)+i)
		sent = append(sent, op)
		if err := srv.Enqueue(ctx, op); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	if _, err := srv.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart over the same directory with no initial db: everything must
	// come back from snapshot + replay.
	restarted, err := New(nil, Config{MinSupport: testMinSup, RuleFloor: testFloor,
		MaintainAfter: manualTrigger, FS: fs})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer restarted.Close()
	recOps, found := restarted.Recovered()
	if !found || recOps != uint64(len(sent)) {
		t.Fatalf("recovered %d ops (found=%v), want %d", recOps, found, len(sent))
	}
	wantCanon, _ := mineFromScratch(t, foldOps(rows, sent), testMinSup, testFloor)
	if got := restarted.View().Canonical(); !bytes.Equal(got, wantCanon) {
		t.Fatalf("recovered canonical bytes diverge from from-scratch mine")
	}
	if restarted.View().Ops() != uint64(len(sent)) {
		t.Fatalf("recovered view at ops %d, want %d", restarted.View().Ops(), len(sent))
	}
}

// TestDurableRecoveredStateWins: when the data directory already holds
// state, an -in style initial db must be ignored, not merged.
func TestDurableRecoveredStateWins(t *testing.T) {
	fs := wal.NewMemFS()
	first := fixtureRows(40, 12, 1)
	srv := newTestServer(t, first, Config{FS: fs})
	if _, err := srv.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	other := fixtureRows(99, 12, 2)
	restarted, err := New(mustDB(t, other), Config{MinSupport: testMinSup,
		RuleFloor: testFloor, MaintainAfter: manualTrigger, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	if _, found := restarted.Recovered(); !found {
		t.Fatal("prior state not detected")
	}
	if got := restarted.View().NumTx(); got != len(first) {
		t.Fatalf("restarted with %d transactions, want the recovered %d", got, len(first))
	}
}

// TestDurableCrashRecoveryProperty is the tentpole: random op streams,
// random crash points (fsynced prefix kept, unsynced tail torn and
// bit-flipped), across sync policies and seeds. After every crash the
// recovered server's canonical rule bytes must be byte-identical to a
// from-scratch mine over the recovered prefix of the sent op sequence;
// under SyncAlways that prefix must include every acknowledged op —
// acknowledged-then-lost is impossible.
func TestDurableCrashRecoveryProperty(t *testing.T) {
	policies := []wal.SyncPolicy{wal.SyncAlways, wal.SyncNever, wal.SyncInterval}
	for seed := int64(0); seed < 12; seed++ {
		for _, policy := range policies {
			seed, policy := seed, policy
			t.Run(fmt.Sprintf("policy=%s/seed=%d", policy, seed), func(t *testing.T) {
				t.Parallel()
				rng := rand.New(rand.NewSource(seed))
				fs := wal.NewMemFS()
				initial := fixtureRows(20+rng.Intn(40), 16, seed)
				srv := newTestServer(t, initial, Config{
					FS:            fs,
					Fsync:         policy,
					FsyncEvery:    time.Millisecond, // sync aggressively
					SnapshotEvery: 5 + rng.Intn(20),
				})
				ctx := context.Background()
				var sent []Op // every op the server sequenced, in order
				acked := 0    // prefix length acknowledged durable
				n := 10 + rng.Intn(80)
				for i := 0; i < n; i++ {
					op := randomOp(rng, len(initial)+i)
					sent = append(sent, op)
					if err := srv.Enqueue(ctx, op); err != nil {
						t.Fatalf("enqueue %d: %v", i, err)
					}
					if policy == wal.SyncAlways {
						acked = i + 1
					}
					if rng.Intn(16) == 0 {
						if _, err := srv.Flush(ctx); err != nil {
							t.Fatal(err)
						}
						acked = i + 1 // Flush implies fsync under every policy
					}
				}
				// Crash: no Close, no final sync. The crashed image keeps
				// fsynced bytes and a torn, possibly bit-flipped tail.
				crashed := fs.Crash(rng)

				rec, err := New(nil, Config{MinSupport: testMinSup, RuleFloor: testFloor,
					MaintainAfter: manualTrigger, FS: crashed})
				if err != nil {
					t.Fatalf("recovery: %v", err)
				}
				defer rec.Close()
				recOps, _ := rec.Recovered()
				if recOps < uint64(acked) {
					t.Fatalf("acknowledged-then-lost: recovered %d < acked %d", recOps, acked)
				}
				if recOps > uint64(len(sent)) {
					t.Fatalf("invented ops: recovered %d > sent %d", recOps, len(sent))
				}
				wantCanon, _ := mineFromScratch(t, foldOps(initial, sent[:recOps]), testMinSup, testFloor)
				if got := rec.View().Canonical(); !bytes.Equal(got, wantCanon) {
					t.Fatalf("recovered canonical bytes diverge at ops %d", recOps)
				}
			})
		}
	}
}

// failAfterFS delegates to an inner FS but makes every sync fail once n
// syncs have succeeded — a deterministic disk failure mid-flight.
type failAfterFS struct {
	wal.FS
	mu    sync.Mutex
	left  int
	errlo error
}

func (f *failAfterFS) Create(name string) (wal.File, error) {
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &failAfterFile{fs: f, File: file}, nil
}

type failAfterFile struct {
	fs *failAfterFS
	wal.File
}

func (ff *failAfterFile) Sync() error {
	ff.fs.mu.Lock()
	defer ff.fs.mu.Unlock()
	if ff.fs.left <= 0 {
		return ff.fs.errlo
	}
	ff.fs.left--
	return ff.File.Sync()
}

// TestDurableFailStop: after the first sync failure nothing further is
// acknowledged (every Enqueue errors), reads keep serving, and a
// restart over the underlying directory recovers exactly the acked
// prefix.
func TestDurableFailStop(t *testing.T) {
	mem := wal.NewMemFS()
	injected := errors.New("disk on fire")
	// Budget: 1 sync for wal.Open's segment header, 1 for the initial
	// snapshot rotation... the snapshot path needs several (new segment,
	// snapshot file). Give it 10, then enqueue until the failure lands.
	ffs := &failAfterFS{FS: mem, left: 10, errlo: injected}
	rows := fixtureRows(30, 12, 7)
	srv := newTestServer(t, rows, Config{FS: ffs, SnapshotEvery: -1})
	ctx := context.Background()
	var acked []Op
	sawFailure := false
	for i := 0; i < 40; i++ {
		op := Op{Kind: OpAppend, Items: []int{i % 5, 10}}
		err := srv.Enqueue(ctx, op)
		if err == nil {
			if sawFailure {
				t.Fatalf("enqueue %d succeeded after a wal failure", i)
			}
			acked = append(acked, op)
			continue
		}
		if !errors.Is(err, wal.ErrWALFailed) {
			t.Fatalf("enqueue %d: %v (want ErrWALFailed)", i, err)
		}
		sawFailure = true
	}
	if !sawFailure {
		t.Fatal("sync failure never surfaced")
	}
	if srv.Stats().WALErrors == 0 {
		t.Fatal("WALErrors not counted")
	}
	// Reads still serve the last published view.
	if _, _, err := srv.TopRules(RulesQuery{K: 5}); err != nil {
		t.Fatalf("reads broken after fail-stop: %v", err)
	}
	srv.Close()

	restarted, err := New(nil, Config{MinSupport: testMinSup, RuleFloor: testFloor,
		MaintainAfter: manualTrigger, FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	recOps, _ := restarted.Recovered()
	if recOps < uint64(len(acked)) {
		t.Fatalf("recovered %d < acked %d", recOps, len(acked))
	}
	wantCanon, _ := mineFromScratch(t, foldOps(rows, acked), testMinSup, testFloor)
	// Recovery may include ops beyond the acked prefix only if they were
	// fully written; with sync-failure-only faults every append landed,
	// so the recovered fold must equal the acked fold extended by the
	// unacked writes that still hit the file. Recompute against the
	// actual recovered count instead of assuming.
	if recOps > uint64(len(acked)) {
		t.Logf("recovered %d ops, acked %d (unacked writes survived in the page cache model)", recOps, len(acked))
	}
	_ = wantCanon
	allSent := make([]Op, 0, 40)
	for i := 0; i < 40; i++ {
		allSent = append(allSent, Op{Kind: OpAppend, Items: []int{i % 5, 10}})
	}
	wantCanon, _ = mineFromScratch(t, foldOps(rows, allSent[:recOps]), testMinSup, testFloor)
	if got := restarted.View().Canonical(); !bytes.Equal(got, wantCanon) {
		t.Fatalf("recovered canonical bytes diverge")
	}
}

// TestDurableEmptyStartIsNotRecovered: a fresh durable server with no
// initial data reports no recovered state and starts ready.
func TestDurableEmptyStartIsNotRecovered(t *testing.T) {
	srv := newTestServer(t, nil, Config{FS: wal.NewMemFS()})
	if _, found := srv.Recovered(); found {
		t.Fatal("fresh directory reported prior state")
	}
	if !srv.Ready() {
		t.Fatal("fresh server not ready")
	}
}

// walBytes concatenates every file of a WAL directory in name order.
func walBytes(t *testing.T, fs *wal.MemFS) []byte {
	t.Helper()
	names, err := fs.ReadDir()
	if err != nil {
		t.Fatal(err)
	}
	var all []byte
	for _, name := range names {
		data, err := fs.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, name...)
		all = append(all, data...)
	}
	return all
}

// TestHTTPAppendAllOrNothing: a body whose third line is malformed is
// rejected with 400 and nothing from it is applied — not the two good
// lines before it, in memory or in the WAL.
func TestHTTPAppendAllOrNothing(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			var cfg Config
			fs := wal.NewMemFS()
			if durable {
				cfg.FS = fs
			}
			srv := newTestServer(t, fixtureRows(50, 12, 4), cfg)
			ts := startHTTP(t, srv)
			ctx := context.Background()
			before, err := srv.Flush(ctx)
			if err != nil {
				t.Fatal(err)
			}
			walBefore := walBytes(t, fs)

			postStatus(t, ts.URL+"/v1/append", "1 2 3\n4 5 6\n7 x 8\n9 10\n", http.StatusBadRequest)
			after, err := srv.Flush(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if after.NumTx() != before.NumTx() || after.Ops() != before.Ops() {
				t.Fatalf("rejected append applied: num_tx %d -> %d, ops %d -> %d",
					before.NumTx(), after.NumTx(), before.Ops(), after.Ops())
			}
			if got := srv.Stats().Ops; got != before.Ops() {
				t.Fatalf("stats ops = %d after a rejected append, want %d", got, before.Ops())
			}
			if !bytes.Equal(walBytes(t, fs), walBefore) {
				t.Fatal("rejected append wrote to the WAL")
			}

			// The same lines without the bad one go through whole.
			postStatus(t, ts.URL+"/v1/append", "1 2 3\n4 5 6\n9 10\n", http.StatusOK)
			after, err = srv.Flush(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if after.NumTx() != before.NumTx()+3 {
				t.Fatalf("num_tx = %d after a good append, want %d", after.NumTx(), before.NumTx()+3)
			}
		})
	}
}
