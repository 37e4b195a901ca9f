// Package des is the discrete-event simulation kernel under netsim and
// the scale sweeps: a binary event heap ordered by virtual timestamp,
// a virtual cycle clock, and two execution modes — single-threaded
// run-to-completion (the deterministic core of eval.Runner.ScaleSweep) and a
// background drainer (the compat shim that lets the goroutine-driven
// netsim rigs keep their blocking channel API while fault delays ride
// virtual time instead of wall-clock sleeps).
//
// Virtual time is counted in modeled CPU cycles — the same unit as
// core.Meter tallies and the obs.Trace span clock (core.CyclesOf), so a
// handler that charges a meter can schedule its completion event exactly
// one tally delta later and the trace, the meters, and the event heap
// all agree on when things happened. For wall-clock-denominated inputs
// (the fault engine's latency/jitter durations) the conversion is fixed
// at one cycle per nanosecond: a modeled 1 GHz part, coarse but uniform.
//
// Determinism: events fire in (timestamp, sequence) order. Sequence
// numbers are assigned at schedule time, so two events at the same
// virtual instant fire in the order they were scheduled — FIFO among
// equal timestamps. A single-threaded Run over a fixed schedule is
// therefore a pure function of its inputs: same spec, same event order,
// same stats, at any -workers (parallelism lives across kernels, never
// inside one).
package des

import (
	"sync"
	"time"
)

// CyclesPerSecond fixes the wall-clock↔virtual-clock exchange rate used
// when durations (not cycle counts) enter the kernel: 1 GHz, i.e. one
// cycle per nanosecond.
const CyclesPerSecond = 1_000_000_000

// DurationCycles converts a wall-clock duration to virtual cycles at
// the fixed CyclesPerSecond rate. Negative durations clamp to zero.
func DurationCycles(d time.Duration) uint64 {
	if d <= 0 {
		return 0
	}
	return uint64(d) // time.Duration is nanoseconds; 1 cycle = 1 ns
}

// Sampler is the windowed-metrics hook: the kernel samples its event
// throughput and backlog at every pop when one is attached. The
// interface is structural (internal/obs/series.Sampler satisfies it)
// so des keeps its zero-dependency footprint.
type Sampler interface {
	// CountAt adds n occurrences of the named counter at virtual time t.
	CountAt(name string, t, n uint64)
	// GaugeAt records level v of the named gauge at virtual time t.
	GaugeAt(name string, t, v uint64)
}

// Handler consumes one event. Implementations dispatch on arg — an
// opaque word the scheduler passes through, typically a packed
// (operation index, stage) pair — so a million-event simulation needs
// one handler value and zero per-event allocations.
type Handler interface {
	OnEvent(now uint64, arg uint64)
}

// funcHandler adapts a closure to Handler for callers (the netsim fault
// path) that need to capture state per event and can afford the
// allocation.
type funcHandler struct{ fn func(now uint64) }

func (h *funcHandler) OnEvent(now uint64, _ uint64) { h.fn(now) }

// event is one heap entry. Ordering is (at, seq): seq breaks timestamp
// ties in schedule order, which makes the pop order a total order that
// never depends on heap internals.
type event struct {
	at  uint64
	seq uint64
	h   Handler
	arg uint64
}

// before is the heap ordering predicate.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Stats is a kernel snapshot.
type Stats struct {
	Processed uint64 // events executed
	Scheduled uint64 // events ever pushed
	PeakLive  int    // high-water mark of the event heap
	Now       uint64 // virtual clock, cycles
}

// Kernel is one discrete-event scheduler. The zero value is not ready;
// use New. All methods are safe for concurrent use — the lock is
// uncontended (and cheap) in single-threaded Run mode, and required in
// Background mode where network goroutines schedule against the
// draining goroutine.
type Kernel struct {
	mu   sync.Mutex
	cond *sync.Cond
	heap []event
	seq  uint64
	now  uint64

	processed uint64
	peakLive  int

	bg      bool // background drainer active
	stopped bool // drainer told to exit

	series Sampler // windowed-metrics hook; nil = off
}

// New creates an empty kernel with the clock at zero.
func New() *Kernel {
	k := &Kernel{}
	k.cond = sync.NewCond(&k.mu)
	return k
}

// SetSeries attaches (or, with nil, detaches) the windowed-metrics
// sampler. Every event pop then records one "des.events" count and a
// "des.backlog" gauge (heap length after the pop) at the event's
// virtual timestamp — the events-per-window and backlog-growth series
// the scale sweep exports. Attach before scheduling; sampling is a
// per-pop branch when detached.
func (k *Kernel) SetSeries(s Sampler) {
	k.mu.Lock()
	k.series = s
	k.mu.Unlock()
}

// samplePop records one pop at time t. Caller holds k.mu.
func (k *Kernel) samplePop(t uint64) {
	if k.series != nil {
		k.series.CountAt("des.events", t, 1)
		k.series.GaugeAt("des.backlog", t, uint64(len(k.heap)))
	}
}

// Now returns the virtual clock: the timestamp of the most recently
// fired event (events run "at" their timestamp, so inside a handler Now
// equals the handler's own time).
func (k *Kernel) Now() uint64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.now
}

// At schedules h.OnEvent(t, arg). A timestamp in the past clamps to the
// current clock — the kernel never runs time backwards.
func (k *Kernel) At(t uint64, h Handler, arg uint64) {
	k.mu.Lock()
	if t < k.now {
		t = k.now
	}
	k.push(event{at: t, seq: k.seq, h: h, arg: arg})
	k.seq++
	if k.bg {
		k.cond.Signal()
	}
	k.mu.Unlock()
}

// After schedules h.OnEvent at Now()+d cycles.
func (k *Kernel) After(d uint64, h Handler, arg uint64) {
	k.mu.Lock()
	t := k.now + d
	k.push(event{at: t, seq: k.seq, h: h, arg: arg})
	k.seq++
	if k.bg {
		k.cond.Signal()
	}
	k.mu.Unlock()
}

// AtFunc schedules a closure; one allocation per call. Prefer At with a
// shared Handler on hot paths.
func (k *Kernel) AtFunc(t uint64, fn func(now uint64)) {
	k.At(t, &funcHandler{fn: fn}, 0)
}

// AfterFunc schedules a closure at Now()+d cycles.
func (k *Kernel) AfterFunc(d uint64, fn func(now uint64)) {
	k.After(d, &funcHandler{fn: fn}, 0)
}

// Len reports the number of pending events.
func (k *Kernel) Len() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.heap)
}

// Stats snapshots the kernel counters.
func (k *Kernel) Stats() Stats {
	k.mu.Lock()
	defer k.mu.Unlock()
	return Stats{Processed: k.processed, Scheduled: k.seq, PeakLive: k.peakLive, Now: k.now}
}

// Step pops and executes the earliest event, advancing the clock to its
// timestamp. It reports false when the heap is empty. The handler runs
// outside the kernel lock, so it may schedule freely.
func (k *Kernel) Step() bool {
	k.mu.Lock()
	if len(k.heap) == 0 {
		k.mu.Unlock()
		return false
	}
	e := k.pop()
	k.now = e.at
	k.processed++
	k.samplePop(e.at)
	k.mu.Unlock()
	e.h.OnEvent(e.at, e.arg)
	return true
}

// Run executes events in (timestamp, seq) order until the heap drains,
// then returns the final stats. Handlers may schedule new events; Run
// is single-threaded, so a run over a fixed initial schedule is fully
// deterministic.
func (k *Kernel) Run() Stats {
	for k.Step() {
	}
	return k.Stats()
}

// RunUntil executes events with timestamps <= t, then sets the clock to
// t (even if no event reached it). Used by tests that cut a simulation
// at a horizon.
func (k *Kernel) RunUntil(t uint64) Stats {
	for {
		k.mu.Lock()
		if len(k.heap) == 0 || k.heap[0].at > t {
			if k.now < t {
				k.now = t
			}
			k.mu.Unlock()
			return k.Stats()
		}
		e := k.pop()
		k.now = e.at
		k.processed++
		k.samplePop(e.at)
		k.mu.Unlock()
		e.h.OnEvent(e.at, e.arg)
	}
}

// Background starts a drainer goroutine that executes events as soon as
// they are scheduled, in (timestamp, seq) order, with the virtual clock
// leaping to each event's timestamp — no wall-clock sleeping, ever.
// This is the compat mode for the channel-based netsim surface: protocol
// goroutines block on their connections exactly as before, while the
// fault engine's delayed deliveries ride virtual time. The returned stop
// function drains nothing further, waits for the in-flight handler to
// finish, and is idempotent.
func (k *Kernel) Background() (stop func()) {
	k.mu.Lock()
	if k.bg {
		k.mu.Unlock()
		panic("des: Background called twice")
	}
	k.bg = true
	k.stopped = false
	done := make(chan struct{})
	k.mu.Unlock()
	go func() {
		defer close(done)
		for {
			k.mu.Lock()
			for len(k.heap) == 0 && !k.stopped {
				k.cond.Wait()
			}
			if k.stopped {
				k.mu.Unlock()
				return
			}
			e := k.pop()
			k.now = e.at
			k.processed++
			k.samplePop(e.at)
			k.mu.Unlock()
			e.h.OnEvent(e.at, e.arg)
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			k.mu.Lock()
			k.stopped = true
			k.bg = false
			k.cond.Broadcast()
			k.mu.Unlock()
			<-done
		})
	}
}

// push inserts an event. Caller holds k.mu.
func (k *Kernel) push(e event) {
	k.heap = append(k.heap, e)
	i := len(k.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !k.heap[i].before(&k.heap[parent]) {
			break
		}
		k.heap[i], k.heap[parent] = k.heap[parent], k.heap[i]
		i = parent
	}
	if len(k.heap) > k.peakLive {
		k.peakLive = len(k.heap)
	}
}

// pop removes and returns the earliest event. Caller holds k.mu and
// guarantees the heap is non-empty.
func (k *Kernel) pop() event {
	top := k.heap[0]
	last := len(k.heap) - 1
	k.heap[0] = k.heap[last]
	k.heap[last] = event{} // release the Handler reference
	k.heap = k.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < last && k.heap[l].before(&k.heap[min]) {
			min = l
		}
		if r < last && k.heap[r].before(&k.heap[min]) {
			min = r
		}
		if min == i {
			break
		}
		k.heap[i], k.heap[min] = k.heap[min], k.heap[i]
		i = min
	}
	return top
}
