package main

import (
	"context"
	"math"
	"math/rand"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// stream is one open-loop request source: a fixed schedule of due
// offsets, a bounded set of workers, and the operation each request
// runs. The schedule never waits for replies, so a stalled server makes
// requests late rather than fewer; every latency is measured from the
// request's due time, which charges a stall to each request it delays.
type stream struct {
	name    string
	workers int
	due     []time.Duration // offsets from the phase start, ascending
	// cutoff is the offset after which a request that has not started
	// is abandoned and counted as failed, so an overloaded rung ends on
	// time instead of draining an unbounded backlog.
	cutoff time.Duration
	do     func(ctx context.Context, i int) error
	// shots are the outcomes, indexed like due; filled by run.
	shots []shot
}

// shot is the outcome of one scheduled request.
type shot struct {
	due    time.Duration // when it was due, from the phase start
	start  time.Duration // when it was sent
	end    time.Duration // when its response was complete
	failed bool          // refused, errored, timed out or abandoned
	// abandoned marks a request never sent: its turn came after the
	// stream's cutoff.
	abandoned bool
}

// latency is the request's time from due to completion.
func (s shot) latency() time.Duration { return s.end - s.due }

// late is how far behind its schedule the generator sent the request.
func (s shot) late() time.Duration { return s.start - s.due }

// poissonSchedule returns n arrival offsets of a Poisson process at rate
// per second: independent shoppers, each arriving on their own.
func poissonSchedule(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		off := time.Duration(t * float64(time.Second))
		if off >= d {
			return out
		}
		out = append(out, off)
	}
}

// fixedSchedule returns arrival offsets at a fixed rate per second:
// point-of-sale terminals posting on a clock.
func fixedSchedule(rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	for i := 1; ; i++ {
		off := time.Duration(float64(i) / rate * float64(time.Second))
		if off >= d {
			return out
		}
		out = append(out, off)
	}
}

// runStreams runs every stream's schedule from one common start and
// returns when all workers have finished. A request whose turn comes
// after its stream's cutoff is not sent; it counts as failed.
func runStreams(ctx context.Context, streams ...*stream) time.Time {
	start := time.Now()
	var wg sync.WaitGroup
	for _, st := range streams {
		st.shots = make([]shot, len(st.due))
		var next atomic.Int64
		for w := 0; w < st.workers; w++ {
			wg.Add(1)
			go func(st *stream) {
				defer wg.Done()
				pace := newPacer()
				defer pace.close()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(st.due) {
						return
					}
					due := st.due[i]
					pace.until(start.Add(due))
					sent := time.Since(start)
					if ctx.Err() != nil || (st.cutoff > 0 && sent > st.cutoff) {
						st.shots[i] = shot{due: due, start: sent, end: sent, failed: true, abandoned: true}
						continue
					}
					err := st.do(ctx, i)
					st.shots[i] = shot{due: due, start: sent, end: time.Since(start), failed: err != nil}
				}
			}(st)
		}
	}
	wg.Wait()
	return start
}

// pacer sleeps a load worker until a request's due time. The
// runtime's timers round sub-millisecond waits up to a whole millisecond
// when the process is idle, which would make every request to an idle
// server look about a millisecond late. A timerfd read through the
// runtime's network poller wakes within tens of microseconds and, unlike
// a blocking nanosleep, does not hold a scheduler slot while it waits.
type pacer struct {
	fd  uintptr
	f   *os.File
	buf [8]byte
}

// itimerspec is the kernel's struct itimerspec.
type itimerspec struct{ interval, value syscall.Timespec }

// newPacer creates the worker's timerfd; nil (fall back to time.Sleep)
// when the kernel refuses one.
func newPacer() *pacer {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil
	}
	return &pacer{fd: fd, f: os.NewFile(fd, "timerfd")}
}

// until blocks until t.
func (p *pacer) until(t time.Time) {
	wait := time.Until(t)
	if wait <= 0 {
		return
	}
	if p != nil {
		spec := itimerspec{value: syscall.NsecToTimespec(int64(wait))}
		_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
		if errno == 0 {
			if _, err := p.f.Read(p.buf[:]); err == nil {
				return
			}
		}
	}
	time.Sleep(time.Until(t))
}

// close releases the timerfd.
func (p *pacer) close() {
	if p != nil {
		p.f.Close()
	}
}

// dist is a sorted sample of durations in microseconds.
type dist []float64

// newDist sorts a copy of vals.
func newDist(vals []float64) dist {
	d := append(dist(nil), vals...)
	sort.Float64s(d)
	return d
}

// pct returns the nearest-rank q-quantile (0 < q <= 1); NaN when empty.
func (d dist) pct(q float64) float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(d)))) - 1
	if i < 0 {
		i = 0
	}
	return d[i]
}

// latencies returns every shot's due-to-complete latency in
// microseconds. A failed shot counts as +Inf: it misses every limit.
func latencies(shots []shot) []float64 {
	out := make([]float64, len(shots))
	for i, s := range shots {
		if s.failed {
			out[i] = math.Inf(1)
			continue
		}
		out[i] = us(s.latency())
	}
	return out
}

// tailChunk is the sample count of one chunk in windowed: enough for a
// p99 with ten samples beyond it.
const tailChunk = 1000

// windowed splits the shots (in due order) into consecutive chunks of
// tailChunk and reports the lowest of the chunks' p50s, the median of
// their p99s, and the total sample count. Host noise on a shared machine
// (the hypervisor's pauses, a neighbour's fsync burst) comes and goes
// within a run and only ever adds latency: the quietest chunk's median
// is what the program's own path costs at the offered load, and the
// median chunk p99 lets a single stall move one chunk rather than the
// run's tail. Every request is still charged from its due time. Fewer
// than two chunks' worth of shots gives the pooled figures.
func windowed(shots []shot) (p50, p99 float64, n int) {
	lat := latencies(shots)
	if len(lat) < 2*tailChunk {
		all := newDist(lat)
		return all.pct(0.5), all.pct(0.99), len(all)
	}
	var p50s, p99s []float64
	for i := 0; i+tailChunk <= len(lat); i += tailChunk {
		d := newDist(lat[i : i+tailChunk])
		p50s = append(p50s, d.pct(0.5))
		p99s = append(p99s, d.pct(0.99))
	}
	return slices.Min(p50s), median(p99s), len(lat)
}

// failures counts failed shots.
func failures(shots []shot) int {
	n := 0
	for _, s := range shots {
		if s.failed {
			n++
		}
	}
	return n
}

// lateP99 is the generator's own p99 lateness in microseconds: how far
// behind schedule requests were sent. When it grows, the server (or the
// host) could not keep up and the rung's latencies are queueing time.
func lateP99(shots []shot) float64 {
	v := make([]float64, 0, len(shots))
	for _, s := range shots {
		v = append(v, us(s.late()))
	}
	return newDist(v).pct(0.99)
}

// rungOK applies the ladder's pass rule to one rung: p99 within limit
// (failed requests count as over it), no failures, and no growing
// backlog — requests due in the rung's last quarter were sent within
// the limit of their due time.
func rungOK(shots []shot, limit, rung time.Duration) bool {
	if len(shots) == 0 || failures(shots) > 0 {
		return false
	}
	if newDist(latencies(shots)).pct(0.99) > us(limit) {
		return false
	}
	var tail []float64
	for _, s := range shots {
		if s.due >= rung*3/4 {
			tail = append(tail, us(s.late()))
		}
	}
	return len(tail) == 0 || newDist(tail).pct(0.9) <= us(limit)
}

// rungStep is the ladder's grid: rung j runs at base * 2^(j/rungStep).
const rungStep = 16

// ladder finds the highest sustainable rate on the fixed geometric grid
// base * 2^(j/16) (rungs about 4.4% apart). It steps j by 4 from 0 — up
// while rungs pass, down while they fail — then bisects between the
// highest passing and lowest failing rung. run drives one rung at the
// given rate and reports whether it passed; a failed rung is run up to
// twice more before it counts as failed, so a burst of host noise does
// not end the climb. The search stops early when budget is spent. It
// returns the highest passing rate found, 0 when none passed.
func ladder(base float64, budget time.Duration, run func(rate float64) bool) float64 {
	deadline := time.Now().Add(budget)
	rate := func(j int) float64 { return base * math.Pow(2, float64(j)/rungStep) }
	passes := func(j int) bool { return run(rate(j)) || run(rate(j)) || run(rate(j)) }
	pass, fail := math.MinInt, math.MaxInt
	for j := 0; time.Now().Before(deadline) && j > -3*rungStep && j < 3*rungStep; {
		if passes(j) {
			pass = j
			if fail != math.MaxInt {
				break
			}
			j += rungStep / 4
		} else {
			fail = j
			if pass != math.MinInt {
				break
			}
			j -= rungStep / 4
		}
	}
	for pass != math.MinInt && fail != math.MaxInt && fail-pass > 1 && time.Now().Before(deadline) {
		mid := (pass + fail) / 2
		if passes(mid) {
			pass = mid
		} else {
			fail = mid
		}
	}
	if pass == math.MinInt {
		return 0
	}
	return rate(pass)
}

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// mean returns the arithmetic mean; NaN if empty.
func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// median returns the middle value (mean of the middle two); NaN if empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
