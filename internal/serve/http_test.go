package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// startHTTP wraps a test server's handler in an httptest server.
func startHTTP(t *testing.T, srv *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// getJSON fetches url and decodes the JSON body into out, asserting the
// status code.
func getJSON(t *testing.T, url string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d (body %s)", url, resp.StatusCode, wantStatus, body)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: decoding %q: %v", url, body, err)
		}
	}
}

// postStatus posts a body and asserts the status code.
func postStatus(t *testing.T, url, body string, wantStatus int) []byte {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	got, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d (body %s)", url, resp.StatusCode, wantStatus, got)
	}
	return got
}

func TestHTTPRules(t *testing.T) {
	srv := newTestServer(t, fixtureRows(200, 16, 21), Config{})
	ts := startHTTP(t, srv)

	var resp rulesResponse
	getJSON(t, ts.URL+"/v1/rules?k=5&by=support", http.StatusOK, &resp)
	if resp.Version != 1 {
		t.Fatalf("rules version = %d, want 1", resp.Version)
	}
	if len(resp.Rules) == 0 || len(resp.Rules) > 5 {
		t.Fatalf("rules count = %d, want 1..5", len(resp.Rules))
	}
	// The HTTP answer must match the direct API answer exactly.
	want, _, err := srv.TopRules(RulesQuery{K: 5, By: BySupport})
	if err != nil {
		t.Fatalf("TopRules: %v", err)
	}
	if !reflect.DeepEqual(resp.Rules, toRuleJSON(want)) {
		t.Fatal("HTTP rules diverge from the API rules")
	}
	// Supports are descending under by=support.
	for i := 1; i < len(resp.Rules); i++ {
		if resp.Rules[i].Support > resp.Rules[i-1].Support {
			t.Fatal("by=support ordering violated")
		}
	}

	// Antecedent filter: every returned antecedent contains the item.
	getJSON(t, ts.URL+"/v1/rules?antecedent=2", http.StatusOK, &resp)
	for _, r := range resp.Rules {
		if !containsAll(r.Antecedent, []int{2}) {
			t.Fatalf("antecedent filter leaked rule %+v", r)
		}
	}
}

func TestHTTPSupportAndRecommend(t *testing.T) {
	srv := newTestServer(t, fixtureRows(200, 16, 22), Config{})
	ts := startHTTP(t, srv)

	var sup SupportResult
	getJSON(t, ts.URL+"/v1/support?items=2,3", http.StatusOK, &sup)
	wantSup, err := srv.ItemsetSupport(2, 3)
	if err != nil {
		t.Fatalf("ItemsetSupport: %v", err)
	}
	if !reflect.DeepEqual(sup, wantSup) {
		t.Fatalf("HTTP support %+v != API support %+v", sup, wantSup)
	}

	var rec rulesResponse
	getJSON(t, ts.URL+"/v1/recommend?items=2&k=3", http.StatusOK, &rec)
	want, _, err := srv.Recommend([]int{2}, 3)
	if err != nil {
		t.Fatalf("Recommend: %v", err)
	}
	if !reflect.DeepEqual(rec.Rules, toRuleJSON(want)) {
		t.Fatal("HTTP recommend diverges from the API")
	}
}

// TestHTTPResponsesAnswerFromOneView calls the rules and recommend
// handlers while the writer publishes a new view per round, each with a
// different transaction count, and checks every served (version, num_tx)
// pair against the view of that version: its NumTx, and the row count of
// the op log replayed to its Ops() position, in the replay style of
// TestSnapshotSwapProperty. A handler that read num_tx from a second view
// load would pair one version with a later view's count.
func TestHTTPResponsesAnswerFromOneView(t *testing.T) {
	const (
		readers = 4
		rounds  = 150
	)
	rng := rand.New(rand.NewSource(7))
	initial := fixtureRows(60, 18, 7)
	srv := newTestServer(t, initial, Config{CacheSize: 64})
	h := srv.Handler()

	type served struct {
		target  string
		version uint64
		numTx   int
	}
	var (
		mu   sync.Mutex
		seen []served
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	targets := []string{"/v1/rules?k=3&by=lift", "/v1/recommend?items=0,1&k=2"}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(target string) {
			defer wg.Done()
			for !stop.Load() {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
				if rec.Code != http.StatusOK {
					t.Errorf("GET %s: status %d (body %s)", target, rec.Code, rec.Body)
					return
				}
				var resp rulesResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Errorf("GET %s: decoding: %v", target, err)
					return
				}
				mu.Lock()
				seen = append(seen, served{target, resp.Version, resp.NumTx})
				mu.Unlock()
			}
		}(targets[r%len(targets)])
	}

	// The writer: one append or delete per round, so every publish moves
	// num_tx, and a Flush after each.
	views := map[uint64]*View{srv.View().Version(): srv.View()}
	var opLog []Op
	driver := opModel{rows: append([][]int(nil), initial...)}
	ctx := context.Background()
	for round := 0; round < rounds; round++ {
		op := Op{Kind: OpAppend, Items: []int{rng.Intn(18), rng.Intn(18), rng.Intn(18)}}
		if round%3 == 2 {
			op = Op{Kind: OpDelete, TID: rng.Intn(len(driver.rows))}
		}
		if err := srv.Enqueue(ctx, op); err != nil {
			t.Fatalf("Enqueue: %v", err)
		}
		opLog = append(opLog, op)
		driver.apply(op)
		v, err := srv.Flush(ctx)
		if err != nil {
			t.Fatalf("Flush round %d: %v", round, err)
		}
		views[v.Version()] = v
	}
	stop.Store(true)
	wg.Wait()

	// Replay the op log to each view's position for its row count.
	versions := make([]uint64, 0, len(views))
	for version := range views {
		versions = append(versions, version)
	}
	slices.Sort(versions)
	replay := opModel{rows: append([][]int(nil), initial...)}
	replayed := uint64(0)
	wantNumTx := map[uint64]int{}
	for _, version := range versions {
		for replayed < views[version].Ops() {
			replay.apply(opLog[replayed])
			replayed++
		}
		wantNumTx[version] = len(replay.rows)
		if got := views[version].NumTx(); got != len(replay.rows) {
			t.Fatalf("version %d: view NumTx %d, replayed rows %d", version, got, len(replay.rows))
		}
	}
	servedVersions := map[uint64]bool{}
	for _, obs := range seen {
		want, ok := wantNumTx[obs.version]
		if !ok {
			t.Fatalf("%s served version %d, which was never published", obs.target, obs.version)
		}
		if obs.numTx != want {
			t.Errorf("%s served version %d with num_tx %d, want %d: the response mixes two views",
				obs.target, obs.version, obs.numTx, want)
		}
		servedVersions[obs.version] = true
	}
	if len(servedVersions) < 2 {
		t.Fatalf("handlers served %d distinct versions; the test never overlapped a publish", len(servedVersions))
	}
}

func TestHTTPBadQueries(t *testing.T) {
	srv := newTestServer(t, fixtureRows(80, 12, 23), Config{})
	ts := startHTTP(t, srv)
	bad := []string{
		"/v1/rules?k=oops",
		"/v1/rules?k=-3",
		"/v1/rules?by=bogus",
		"/v1/rules?minconf=1.7",
		"/v1/rules?minconf=NaN",
		"/v1/rules?antecedent=1,x",
		"/v1/rules?antecedent=-4",
		"/v1/support?items=",
		"/v1/support?items=a",
		"/v1/recommend?items=",
		"/v1/recommend?items=1&k=zzz",
	}
	for _, path := range bad {
		var body map[string]string
		getJSON(t, ts.URL+path, http.StatusBadRequest, &body)
		if body["error"] == "" {
			t.Errorf("%s: no error body", path)
		}
	}
	postStatus(t, ts.URL+"/v1/delete?tid=x", "", http.StatusBadRequest)
	postStatus(t, ts.URL+"/v1/delete?tid=-1", "", http.StatusBadRequest)
	postStatus(t, ts.URL+"/v1/append", "1 2 -9", http.StatusBadRequest)
}

func TestHTTPIngestFlushRoundTrip(t *testing.T) {
	srv := newTestServer(t, fixtureRows(100, 12, 24), Config{})
	ts := startHTTP(t, srv)

	var enq map[string]int
	body := postStatus(t, ts.URL+"/v1/append", "1 2 3\n\n4 5 6\n", http.StatusOK)
	if err := json.Unmarshal(body, &enq); err != nil || enq["enqueued"] != 2 {
		t.Fatalf("append reply %s (err %v), want enqueued=2", body, err)
	}
	postStatus(t, ts.URL+"/v1/delete?tid=0", "", http.StatusOK)

	var flush map[string]any
	body = postStatus(t, ts.URL+"/v1/flush", "", http.StatusOK)
	if err := json.Unmarshal(body, &flush); err != nil {
		t.Fatalf("flush reply %s: %v", body, err)
	}
	if v, ok := flush["version"].(float64); !ok || v < 2 {
		t.Fatalf("flush did not publish: %v", flush)
	}
	if n, ok := flush["num_tx"].(float64); !ok || int(n) != 100+2-1 {
		t.Fatalf("flush num_tx = %v, want 101", flush["num_tx"])
	}

	var stats Stats
	getJSON(t, ts.URL+"/v1/stats", http.StatusOK, &stats)
	if stats.Ops != 3 || stats.Maintains == 0 {
		t.Fatalf("stats after round trip: %+v", stats)
	}
	var health map[string]string
	getJSON(t, ts.URL+"/v1/healthz", http.StatusOK, &health)
	if health["status"] != "ok" {
		t.Fatalf("healthz: %v", health)
	}
}

// TestParseRulesQueryTable pins the parser's accept/reject behavior
// directly (the fuzz targets explore beyond it).
func TestParseRulesQueryTable(t *testing.T) {
	cases := []struct {
		raw  string
		want RulesQuery
		ok   bool
	}{
		{"", RulesQuery{K: 10, By: ByConfidence, Antecedent: []int{}}, true},
		{"k=3&by=LIFT", RulesQuery{K: 3, By: ByLift, Antecedent: []int{}}, true},
		{"k=99999999", RulesQuery{K: MaxTopK, By: ByConfidence, Antecedent: []int{}}, true},
		{"antecedent=3,1,3&minconf=0.6", RulesQuery{K: 10, By: ByConfidence, MinConfidence: 0.6, Antecedent: []int{1, 3}}, true},
		{"by=support&unknown=ignored", RulesQuery{K: 10, By: BySupport, Antecedent: []int{}}, true},
		{"k=-1", RulesQuery{}, false},
		{"by=frequency", RulesQuery{}, false},
		{"minconf=2", RulesQuery{}, false},
		{"minconf=x", RulesQuery{}, false},
		{"antecedent=1|2", RulesQuery{}, false},
	}
	for _, tc := range cases {
		values, err := url.ParseQuery(tc.raw)
		if err != nil {
			t.Fatalf("ParseQuery(%q): %v", tc.raw, err)
		}
		got, err := ParseRulesQuery(values)
		if tc.ok != (err == nil) {
			t.Errorf("ParseRulesQuery(%q) error = %v, want ok=%v", tc.raw, err, tc.ok)
			continue
		}
		if tc.ok && !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseRulesQuery(%q) = %+v, want %+v", tc.raw, got, tc.want)
		}
	}
}

// TestQueryLimits pins the documented bounds.
func TestQueryLimits(t *testing.T) {
	big := make([]int, maxQueryItems+1)
	if _, err := normalizeItems(big); err == nil {
		t.Error("oversized item list accepted")
	}
	var sb strings.Builder
	for i := 0; i <= maxQueryItems; i++ {
		fmt.Fprintf(&sb, "%d,", i)
	}
	if _, err := ParseItems(sb.String()); err == nil {
		t.Error("oversized item string accepted")
	}
	if _, err := ParseItems("5 , 3\t2"); err != nil {
		t.Errorf("mixed separators rejected: %v", err)
	}
}
