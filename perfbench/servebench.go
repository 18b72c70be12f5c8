package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// httpServer is a serve.Server behind its HTTP handler on a loopback
// listener, assembled the way cmd/dmserve assembles it.
type httpServer struct {
	hs        *http.Server
	base      string
	wg        sync.WaitGroup
	serveErr  error
	respBytes atomic.Int64
}

// startHTTP serves srv on 127.0.0.1 at an ephemeral port. With a tracer
// the handler is wrapped in the benchmark's span middleware.
func startHTTP(srv *serve.Server, tr *tracer) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	h := &httpServer{base: "http://" + ln.Addr().String()}
	handler := srv.Handler()
	if tr != nil {
		handler = handlerSpans(tr, handler, &h.respBytes)
	}
	h.hs = serve.NewHTTPServer(handler, serve.HTTPTimeouts{})
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		if err := h.hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			h.serveErr = err
		}
	}()
	return h, nil
}

// stop shuts the listener down and waits for the serve goroutine.
func (h *httpServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := h.hs.Shutdown(ctx)
	h.wg.Wait()
	if err == nil {
		err = h.serveErr
	}
	return err
}

// client is one load stream's HTTP client: its own transport, capped at
// conns connections, so streams never share a connection.
type client struct {
	hc   *http.Client
	base string
	tr   *tracer
}

// newClient builds a client for base with at most conns connections.
func newClient(base string, conns int, tr *tracer) *client {
	t := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: t, Timeout: 5 * time.Second}, base: base, tr: tr}
}

// close drops the client's idle connections.
func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the full body of a 200 response; any
// other status is an error. The body is read into buf, which the caller
// reuses across its requests (the returned slice aliases it), so the
// client allocates little and adds little to the server's GC work. With
// a tracer it records a loadgen.request span whose id the handler
// middleware picks up from the header.
func (c *client) do(ctx context.Context, method, path string, body []byte, buf *bytes.Buffer) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	var id int64
	var start time.Duration
	if c.tr != nil {
		id = c.tr.ids.Add(1)
		req.Header.Set(reqHeader, strconv.FormatInt(id, 10))
		start = c.tr.now()
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if c.tr != nil {
		c.tr.mu.Lock()
		c.tr.spans = append(c.tr.spans, span{ID: id, Req: id, Name: "loadgen.request", Start: start, End: c.tr.now()})
		c.tr.mu.Unlock()
	}
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	return buf.Bytes(), nil
}

// published is one view the watcher saw go live.
type published struct {
	version uint64
	ops     uint64
	at      time.Time
}

// watcher polls the server's published view (an atomic pointer load)
// every pollEvery and records each new version with the time it was
// first seen, plus the ingest queue depth. Visibility is measured
// against these records.
type watcher struct {
	srv   *serve.Server
	mu    sync.Mutex
	pubs  []published
	queue []float64
	heap  float64
	trace bool
	stop  chan struct{}
	wg    sync.WaitGroup
}

// pollEvery is the watcher's period: the resolution of every
// visibility time, small against the default publish cadence.
const pollEvery = 500 * time.Microsecond

// watch starts a watcher over srv; with trace it also samples queue
// depth and live heap.
func watch(srv *serve.Server, trace bool) *watcher {
	w := &watcher{srv: srv, trace: trace, stop: make(chan struct{})}
	v := srv.View()
	w.pubs = append(w.pubs, published{version: v.Version(), ops: v.Ops(), at: time.Now()})
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		t := time.NewTicker(pollEvery)
		defer t.Stop()
		for n := 0; ; n++ {
			select {
			case <-w.stop:
				return
			case <-t.C:
			}
			v := srv.View()
			w.mu.Lock()
			if last := w.pubs[len(w.pubs)-1]; v.Version() != last.version {
				w.pubs = append(w.pubs, published{version: v.Version(), ops: v.Ops(), at: time.Now()})
			}
			if w.trace && n%20 == 0 {
				w.queue = append(w.queue, float64(srv.Stats().QueueLen))
				w.heap = max(w.heap, heapMB())
			}
			w.mu.Unlock()
		}
	}()
	return w
}

// close stops the watcher and waits for it.
func (w *watcher) close() {
	close(w.stop)
	w.wg.Wait()
}

// snapshot returns the publishes seen so far.
func (w *watcher) snapshot() []published {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]published(nil), w.pubs...)
}

// queueSamples returns the sampled ingest-queue depths.
func (w *watcher) queueSamples() []float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]float64(nil), w.queue...)
}

// heapPeak returns the largest sampled live heap in MB.
func (w *watcher) heapPeak() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.heap
}

// visibleAt returns when the first view covering op seq went live, and
// whether one has.
func visibleAt(pubs []published, seq uint64) (time.Time, bool) {
	for _, p := range pubs {
		if p.ops >= seq {
			return p.at, true
		}
	}
	return time.Time{}, false
}
