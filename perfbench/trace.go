package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wal"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's side of the call. Start and End are offsets from the
// tracer's epoch; Parent is the id of the span that caused it (0 for a
// root) and Req ties the spans of one request together.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Req    int64         `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps every span in memory until the run ends. A nil *tracer
// records nothing, which is how the untraced run stays untraced.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

// newTracer starts an empty trace.
func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now is the current offset from the epoch.
func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// add records a finished span and returns its id.
func (t *tracer) add(parent, req int64, name string, start, end time.Duration) int64 {
	if t == nil {
		return 0
	}
	id := t.ids.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	t.mu.Unlock()
	return id
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// named returns the durations of every span called name.
func (t *tracer) named(name string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerOf is the layer a span belongs to: its name up to the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns each layer's self time: for every span, its
// duration minus the part of its interval that its children cover,
// summed by layer. Children may overlap each other and may run past
// their parent; only the union of their intervals clipped to the
// parent counts.
func selfTimes(spans []span) map[string]time.Duration {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[layerOf(s.Name)] += s.End - s.Start - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals
// clipped to the parent's.
func covered(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// reqHeader carries the benchmark's request id to its handler
// middleware so the client and handler spans of one request join up.
const reqHeader = "X-Bench-Req"

// handlerSpans wraps the server's handler: one span per request, named
// after the endpoint, parented to the client span whose id the request
// carries, plus the response body size. It is the per-layer view of the
// serve tier taken from outside the program.
func handlerSpans(t *tracer, next http.Handler, bytes *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		cw := &countingWriter{ResponseWriter: w}
		start := t.now()
		next.ServeHTTP(cw, r)
		t.add(parent, parent, "serve.handler_"+strings.TrimPrefix(r.URL.Path, "/v1/"), start, t.now())
		bytes.Add(cw.n)
	})
}

// countingWriter counts response body bytes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

// Write counts and forwards.
func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// walFS times the write-ahead log's file operations: every segment write
// and sync, and each snapshot from the temp file's creation to its
// commit rename. It wraps the production directory FS and is passed to
// the server as Config.FS.
type walFS struct {
	wal.FS
	t        *tracer
	segBytes atomic.Int64
	snapMu   sync.Mutex
	snapAt   map[string]time.Duration // temp name -> Create offset
	snapSize map[string]int64
}

// newWalFS wraps fsys.
func newWalFS(fsys wal.FS, t *tracer) *walFS {
	return &walFS{FS: fsys, t: t, snapAt: map[string]time.Duration{}, snapSize: map[string]int64{}}
}

// Create wraps the file in a timing handle.
func (w *walFS) Create(name string) (wal.File, error) {
	start := w.t.now()
	f, err := w.FS.Create(name)
	if err != nil {
		return nil, err
	}
	snap := strings.HasSuffix(name, ".tmp")
	if snap {
		w.snapMu.Lock()
		w.snapAt[name] = start
		w.snapMu.Unlock()
	}
	return &walFile{File: f, fs: w, name: name, snap: snap}, nil
}

// Rename ends a snapshot span when a temp snapshot is committed.
func (w *walFS) Rename(oldname, newname string) error {
	err := w.FS.Rename(oldname, newname)
	w.snapMu.Lock()
	start, ok := w.snapAt[oldname]
	delete(w.snapAt, oldname)
	w.snapMu.Unlock()
	if ok && err == nil {
		w.t.add(0, 0, "wal.snapshot", start, w.t.now())
	}
	return err
}

// walFile times one file's writes and syncs.
type walFile struct {
	wal.File
	fs   *walFS
	name string
	snap bool
}

// Write records a wal.write span for segment writes and counts bytes.
func (f *walFile) Write(p []byte) (int, error) {
	start := f.fs.t.now()
	n, err := f.File.Write(p)
	if f.snap {
		f.fs.snapMu.Lock()
		f.fs.snapSize[f.name] += int64(n)
		f.fs.snapMu.Unlock()
		return n, err
	}
	f.fs.t.add(0, 0, "wal.write", start, f.fs.t.now())
	f.fs.segBytes.Add(int64(n))
	return n, err
}

// Sync records a wal.sync span for segment syncs.
func (f *walFile) Sync() error {
	start := f.fs.t.now()
	err := f.File.Sync()
	if !f.snap {
		f.fs.t.add(0, 0, "wal.sync", start, f.fs.t.now())
	}
	return err
}

// snapshotBytes returns the mean size of the committed snapshots' files.
func (w *walFS) snapshotBytes() float64 {
	w.snapMu.Lock()
	defer w.snapMu.Unlock()
	if len(w.snapSize) == 0 {
		return 0
	}
	var total int64
	for _, n := range w.snapSize {
		total += n
	}
	return float64(total) / float64(len(w.snapSize))
}
