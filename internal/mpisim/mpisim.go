// Package mpisim is a simulated message-passing runtime: it executes SPMD
// programs written against an MPI-like API — real data movement between
// ranks — while advancing per-rank *virtual clocks* according to a
// LogP-style communication cost model instead of measuring host time.
//
// It stands in for the paper's real-cluster substrate (the Argonne Fusion
// runs of Section IV): the Heat Distribution program in internal/heat runs
// on it with genuine ghost-cell exchanges and reductions, producing the
// speedup curves of Figure 2 and exercising the FTI-style checkpoint
// toolkit in internal/fti end to end. Because time is virtual, a
// 1,024-rank execution simulates in milliseconds, deterministically.
//
// Two execution engines share one operation layer (see docs/SCHEDULER.md):
//
//   - EventEngine (the default): a run-to-completion scheduler. Rank
//     programs run as cooperative continuations — exactly one rank executes
//     at a time, from one blocking operation to the next, and the scheduler
//     resumes the runnable rank with the smallest virtual clock. Goroutines
//     are created lazily, only for ranks that actually block, so a program
//     that never blocks spawns none.
//   - GoroutineEngine: the original goroutine-per-rank runtime with channel
//     rendezvous, kept as the differential-testing oracle. The two engines
//     share every cost formula, so any divergence in clocks, payloads, or
//     traces is a scheduler bug by construction — differential_test.go
//     hunts for exactly that.
//
// Timing semantics (cost model fields in parentheses):
//
//   - Compute(s): the rank's clock advances by s seconds.
//   - Send/Isend: the sender is charged the injection overhead (Overhead);
//     the message departs at that point and arrives Latency + len·ByteTime
//     later.
//   - Recv/Wait: the receiver's clock becomes max(own clock, arrival) +
//     Overhead.
//   - Collectives (Barrier, Bcast, Allreduce): all ranks synchronize to the
//     latest participant, plus a binary-tree cost of ceil(log2 P) rounds.
package mpisim

import (
	"errors"
	"fmt"
	"math"

	"mlckpt/internal/enc"
	"mlckpt/internal/obs"
)

// ErrRuntime is returned when an SPMD program fails (rank panic, bad rank
// arguments, mismatched collectives, an all-ranks-blocked deadlock under
// the event engine).
var ErrRuntime = errors.New("mpisim: runtime error")

// Engine selects the execution engine for an SPMD run.
type Engine int

// Available engines. EventEngine is the zero value and the default
// everywhere; GoroutineEngine is the legacy runtime kept as the
// differential-testing oracle.
const (
	EventEngine Engine = iota
	GoroutineEngine
)

func (e Engine) String() string {
	switch e {
	case EventEngine:
		return "event"
	case GoroutineEngine:
		return "goroutine"
	default:
		return fmt.Sprintf("engine(%d)", int(e))
	}
}

// CostModel parameterizes communication timing, all in seconds (ByteTime in
// seconds per byte).
type CostModel struct {
	Overhead float64 // per-message CPU injection/extraction cost (o)
	Latency  float64 // network transit latency (L)
	ByteTime float64 // inverse bandwidth (1/B), seconds per byte
}

// DefaultCostModel approximates a commodity InfiniBand cluster of the
// paper's era: ~1 µs overhead, ~1.5 µs latency, ~3 GB/s links.
func DefaultCostModel() CostModel {
	return CostModel{Overhead: 1e-6, Latency: 1.5e-6, ByteTime: 1.0 / 3e9}
}

// transferTime returns the wire time of an n-byte message.
func (c CostModel) transferTime(n int) float64 {
	return c.Latency + float64(n)*c.ByteTime
}

// treeCost returns the cost of a binary-tree collective over p ranks moving
// n bytes per round.
func (c CostModel) treeCost(p, n int) float64 {
	if p <= 1 {
		return 0
	}
	rounds := math.Ceil(math.Log2(float64(p)))
	return rounds * (c.Overhead + c.transferTime(n))
}

type mailKey struct {
	src, dst, tag int
}

// collKind indexes the fixed set of collective operations. Using a dense
// enum (rather than the operation name) lets each rank keep its per-kind
// sequence counters in a flat array instead of a map, which is what keeps
// world spawn at O(ranks) small allocations.
type collKind uint8

// Collective kinds, in span-name order (see collNames).
const (
	collBarrier collKind = iota
	collBcast
	collAllreduce
	collGather
	collReduce
	collScatter
	numCollKinds
)

var collNames = [numCollKinds]string{"barrier", "bcast", "allreduce", "gather", "reduce", "scatter"}

// collKey names one instance of a collective: the operation kind plus the
// per-rank sequence number. A comparable struct (rather than a formatted
// string) keeps the per-rank hot path allocation-free.
type collKey struct {
	kind collKind
	seq  int
}

type message struct {
	data    []byte
	pooled  *[]byte // pool wrapper for data: recycled by RecvInto, dropped by Recv
	arrival float64 // virtual time the message is available at the receiver
}

// collCompute runs once per collective, on the last arriver, over the
// gathered payloads and entry clocks; it returns (result, exitClock). Both
// engines invoke the same closures, so virtual time is engine-independent
// by construction.
type collCompute func(entries []float64, payloads []any) (any, float64)

// backend is the engine-specific half of the runtime: message transport,
// blocking, and collective rendezvous. All clock arithmetic and cost
// computation lives in the shared Rank operation layer below, so both
// engines produce bit-identical virtual times for the same program.
type backend interface {
	size() int
	cost() CostModel

	// deliver transports a message (already charged to the sender's clock)
	// to (dst, tag). The payload has been copied into an engine-owned
	// buffer by the caller via copyBuf.
	deliver(r *Rank, dst, tag int, m message)
	// await blocks the rank until a message from (src, tag) is available
	// and returns it.
	await(r *Rank, src, tag int) message
	// copyBuf copies data into an engine-pooled buffer.
	copyBuf(data []byte) ([]byte, *[]byte)
	// getBuf returns an uninitialized engine-pooled buffer of length n;
	// the caller fills it before handing it to deliver.
	getBuf(n int) ([]byte, *[]byte)
	// recycle returns a pooled message buffer after RecvInto copied it out.
	recycle(p *[]byte)
	// rendezvous blocks the rank in the keyed collective; the last arriver
	// runs compute over all entry clocks and payloads. Every participant
	// receives (result, exit).
	rendezvous(r *Rank, key collKey, payload any, compute collCompute) (any, float64)
}

// abortSentinel marks the secondary panics used to unblock ranks stuck in
// Recv or collectives after another rank failed.
type abortSentinel struct{}

// Rank is the per-rank handle an SPMD function receives.
type Rank struct {
	id    int
	rt    backend
	clock float64
	seq   [numCollKinds]int // per-kind collective sequence numbers

	// contrib holds the rank's vector while it is inside an Allreduce or
	// Reduce. The collective's payload is &contrib, a pointer an interface
	// holds without allocating; boxing the slice itself would cost one
	// allocation per rank per collective.
	contrib []float64

	// Event-engine fiber state (nil under the goroutine engine). Keeping
	// the pointer here lets the shared ops layer stay engine-agnostic while
	// the event backend reaches its scheduling state in O(1).
	fib *fiber
}

// Run executes fn as size ranks on the default event engine and returns
// the wall-clock time of the execution: the maximum final virtual clock
// across ranks. A panic in any rank aborts the run with an error.
func Run(size int, cost CostModel, fn func(*Rank)) (float64, error) {
	return RunObservedOn(EventEngine, size, cost, fn, nil, "")
}

// RunOn is Run on an explicit engine. GoroutineEngine is the legacy
// goroutine-per-rank runtime, kept as the differential-testing oracle.
func RunOn(engine Engine, size int, cost CostModel, fn func(*Rank)) (float64, error) {
	return RunObservedOn(engine, size, cost, fn, nil, "")
}

// RunObserved is Run with telemetry: collective operations are counted
// and — when track is non-empty — emitted as spans on the virtual clock
// (entry of the earliest rank to exit), plus one enclosing "run" span.
// Track names must derive from the program's content (kernel name, scale)
// so traces are byte-identical across hosts and schedules. A nil recorder
// makes this identical to Run.
func RunObserved(size int, cost CostModel, fn func(*Rank), rec obs.Recorder, track string) (float64, error) {
	return RunObservedOn(EventEngine, size, cost, fn, rec, track)
}

// RunObservedOn is RunObserved on an explicit engine.
func RunObservedOn(engine Engine, size int, cost CostModel, fn func(*Rank), rec obs.Recorder, track string) (float64, error) {
	if size <= 0 {
		return 0, fmt.Errorf("%w: size %d", ErrRuntime, size)
	}
	switch engine {
	case EventEngine:
		return runEvent(size, cost, fn, obs.OrNop(rec), track)
	case GoroutineEngine:
		return runGoroutine(size, cost, fn, obs.OrNop(rec), track)
	default:
		return 0, fmt.Errorf("%w: unknown engine %d", ErrRuntime, int(engine))
	}
}

// finishRun emits the end-of-run telemetry shared by both engines and
// returns the wall clock: the maximum final virtual clock across ranks.
func finishRun(rec obs.Recorder, track string, size int, clocks func(i int) float64) float64 {
	wall := 0.0
	for i := 0; i < size; i++ {
		if c := clocks(i); c > wall {
			wall = c
		}
	}
	rec.Count("mpisim.runs", 1)
	rec.Observe("mpisim.run.virtual_s", wall)
	if track != "" {
		rec.Span(track, "run", 0, wall, map[string]float64{
			"ranks": float64(size),
		})
	}
	return wall
}

// emitCollSpan records one completed collective. Both engines call it from
// the last arriver at completion, so per-track event order equals
// collective completion order — which program order fixes (all collectives
// here are global, hence totally ordered).
func emitCollSpan(rec obs.Recorder, track string, key collKey, entries []float64, exit float64) {
	rec.Count("mpisim.collectives", 1)
	if track != "" {
		entry := minOf(entries)
		rec.Span(track, collNames[key.kind], entry, exit-entry, map[string]float64{
			"seq": float64(key.seq),
		})
	}
}

// ID returns the rank index in [0, Size).
func (r *Rank) ID() int { return r.id }

// Size returns the number of ranks.
func (r *Rank) Size() int { return r.rt.size() }

// Clock returns the rank's current virtual time in seconds.
func (r *Rank) Clock() float64 { return r.clock }

// Compute advances the rank's clock by the given computation time.
func (r *Rank) Compute(seconds float64) {
	if seconds > 0 {
		r.clock += seconds
	}
}

// AdvanceTo raises the rank's clock to at least t (used by I/O substrates
// that compute completion times themselves).
func (r *Rank) AdvanceTo(t float64) {
	if t > r.clock {
		r.clock = t
	}
}

// Send transmits data to rank dst with the given tag (eager semantics: the
// sender does not wait for the matching receive). The payload is copied,
// so the caller may reuse data immediately.
//
//mlckpt:fiber
func (r *Rank) Send(dst, tag int, data []byte) {
	if dst < 0 || dst >= r.rt.size() {
		panic(fmt.Sprintf("mpisim: Send to invalid rank %d", dst))
	}
	r.clock += r.rt.cost().Overhead
	buf, pooled := r.rt.copyBuf(data)
	r.rt.deliver(r, dst, tag, message{
		data:    buf,
		pooled:  pooled,
		arrival: r.clock + r.rt.cost().transferTime(len(data)),
	})
}

// SendFloats is Send for a float64 payload: the row is encoded (the
// little-endian wire format of internal/enc) directly into the engine's
// pooled message buffer, skipping the byte staging buffer a
// Send(encode(row)) pair needs. Clock arithmetic, message bytes, and
// matching are identical to Send of the encoded row — a receiver may use
// Recv/RecvInto or RecvFloatsInto interchangeably.
//
//mlckpt:fiber
func (r *Rank) SendFloats(dst, tag int, row []float64) {
	if dst < 0 || dst >= r.rt.size() {
		panic(fmt.Sprintf("mpisim: Send to invalid rank %d", dst))
	}
	r.clock += r.rt.cost().Overhead
	n := 8 * len(row)
	buf, pooled := r.rt.getBuf(n)
	enc.PutFloat64s(buf, row)
	r.rt.deliver(r, dst, tag, message{
		data:    buf,
		pooled:  pooled,
		arrival: r.clock + r.rt.cost().transferTime(n),
	})
}

// Recv blocks until a message from src with the given tag arrives and
// returns its payload.
//
//mlckpt:fiber
func (r *Rank) Recv(src, tag int) []byte {
	msg := r.awaitFrom(src, tag)
	return msg.data
}

// RecvInto is Recv with a caller-owned destination: the payload is copied
// into buf (grown if too small) and the internal message buffer returns
// to the runtime's pool, so a steady-state exchange loop allocates
// nothing. Clock semantics are identical to Recv.
//
//mlckpt:fiber
func (r *Rank) RecvInto(src, tag int, buf []byte) []byte {
	msg := r.awaitFrom(src, tag)
	if cap(buf) < len(msg.data) {
		buf = make([]byte, len(msg.data))
	} else {
		buf = buf[:len(msg.data)]
	}
	copy(buf, msg.data)
	r.rt.recycle(msg.pooled)
	return buf
}

// RecvFloatsInto is RecvInto for a float64 payload: the message is
// decoded directly into dst (whose length must match the payload's word
// count) and the message buffer returns to the runtime's pool — the
// inverse of SendFloats, with no intermediate byte buffer on either side.
// Clock semantics are identical to Recv.
//
//mlckpt:fiber
func (r *Rank) RecvFloatsInto(src, tag int, dst []float64) {
	msg := r.awaitFrom(src, tag)
	if 8*len(dst) != len(msg.data) {
		panic(fmt.Sprintf("mpisim: RecvFloatsInto of a %d-byte message into %d words", len(msg.data), len(dst)))
	}
	enc.GetFloat64s(dst, msg.data)
	r.rt.recycle(msg.pooled)
}

func (r *Rank) awaitFrom(src, tag int) message {
	if src < 0 || src >= r.rt.size() {
		panic(fmt.Sprintf("mpisim: Recv from invalid rank %d", src))
	}
	msg := r.rt.await(r, src, tag)
	if msg.arrival > r.clock {
		r.clock = msg.arrival
	}
	r.clock += r.rt.cost().Overhead
	return msg
}

// Request is a pending nonblocking operation.
type Request struct {
	rank     *Rank
	recv     bool
	src, tag int
	done     bool
	data     []byte
}

// doneRequest is the shared completed-send request: Wait on a done
// request only reads, so one immutable instance serves every Isend.
var doneRequest = &Request{done: true}

// Isend starts a nonblocking send. The message is injected immediately
// (eager); Wait is a no-op kept for MPI-shaped code.
//
//mlckpt:fiber
func (r *Rank) Isend(dst, tag int, data []byte) *Request {
	r.Send(dst, tag, data)
	return doneRequest
}

// Irecv posts a nonblocking receive; the match happens at Wait.
func (r *Rank) Irecv(src, tag int) *Request {
	return &Request{rank: r, recv: true, src: src, tag: tag}
}

// Wait completes the request and returns the received payload (nil for
// sends).
//
//mlckpt:fiber
func (q *Request) Wait() []byte {
	if q.done {
		return q.data
	}
	q.done = true
	if q.recv {
		q.data = q.rank.Recv(q.src, q.tag)
	}
	return q.data
}

// Waitall completes all requests in order.
//
//mlckpt:fiber
func (r *Rank) Waitall(reqs []*Request) {
	for _, q := range reqs {
		q.Wait()
	}
}

// collective synchronizes all ranks on a kinded operation. compute runs
// once (on the last arriver) over the gathered payloads and entry clocks
// and returns (result, exitClock).
//
//mlckpt:fiber
func (r *Rank) collective(kind collKind, payload any, compute collCompute) any {
	seq := r.seq[kind]
	r.seq[kind] = seq + 1
	key := collKey{kind: kind, seq: seq}
	// Devirtualized per engine: through the backend interface the compute
	// closure (and its captures) would heap-escape on every rank at every
	// collective; with a concrete callee escape analysis proves the
	// closure never outlives the call and leaves it on the stack. The
	// switch is exhaustive — backend is unexported and has exactly these
	// two implementations (an interface fallback arm would put the
	// escape back on every path: escape analysis is flow-insensitive).
	var result any
	var exit float64
	switch rt := r.rt.(type) {
	case *evRuntime:
		result, exit = rt.rendezvous(r, key, payload, compute)
	case *goRuntime:
		result, exit = rt.rendezvous(r, key, payload, compute)
	default:
		panic("mpisim: unknown backend")
	}
	r.clock = exit
	return result
}

// Barrier blocks until every rank reaches it; all clocks synchronize to the
// latest participant plus a tree latency.
//
//mlckpt:fiber
func (r *Rank) Barrier() {
	cost := r.rt.cost().treeCost(r.rt.size(), 0)
	r.collective(collBarrier, nil, func(entries []float64, _ []any) (any, float64) {
		return nil, maxOf(entries) + cost
	})
}

// Bcast broadcasts root's payload to every rank and returns it.
//
//mlckpt:fiber
func (r *Rank) Bcast(root int, data []byte) []byte {
	if root < 0 || root >= r.rt.size() {
		panic(fmt.Sprintf("mpisim: Bcast with invalid root %d", root))
	}
	var payload any
	if r.id == root {
		payload = append([]byte(nil), data...)
	}
	// Cost from the root's payload, not the caller's argument: the closure
	// runs on whichever rank arrives last, and non-root callers may pass
	// nil or differently-sized buffers. Virtual time has to be a pure
	// function of the communicated data, never of rank execution order.
	cm, size := r.rt.cost(), r.rt.size()
	out := r.collective(collBcast, payload, func(entries []float64, payloads []any) (any, float64) {
		n := 0
		if b, ok := payloads[root].([]byte); ok {
			n = len(b)
		}
		return payloads[root], maxOf(entries) + cm.treeCost(size, n)
	})
	if out == nil {
		return nil
	}
	return out.([]byte)
}

// ReduceOp is a reduction operator for Allreduce.
type ReduceOp int

// Supported reduction operators.
const (
	Sum ReduceOp = iota
	Max
	Min
)

// reduce folds the ranks' contributions (each payload a *[]float64, see
// Rank.contrib) in rank order into a fresh vector. Shared by Allreduce and
// Reduce so every reduction uses the exact same float operations; name
// labels a length-mismatch panic.
func (op ReduceOp) reduce(name string, payloads []any) []float64 {
	acc := append([]float64(nil), *payloads[0].(*[]float64)...)
	for _, p := range payloads[1:] {
		v := *p.(*[]float64)
		if len(v) != len(acc) {
			panic(fmt.Sprintf("mpisim: %s length mismatch: %d vs %d", name, len(v), len(acc)))
		}
		op.apply(acc, v)
	}
	return acc
}

// apply folds v into acc elementwise.
func (op ReduceOp) apply(acc, v []float64) {
	for j := range acc {
		switch op {
		case Sum:
			acc[j] += v[j]
		case Max:
			if v[j] > acc[j] {
				acc[j] = v[j]
			}
		case Min:
			if v[j] < acc[j] {
				acc[j] = v[j]
			}
		}
	}
}

// Allreduce reduces the per-rank vectors elementwise with op and returns
// the reduced vector to every rank.
//
//mlckpt:fiber
func (r *Rank) Allreduce(op ReduceOp, data []float64) []float64 {
	// No defensive copy of data: every rank is blocked inside the
	// collective until the last arriver has run the reduction, so no
	// caller can mutate its argument while another rank's closure reads
	// it. (The reduced vector is a fresh allocation shared by all ranks.)
	cost := r.rt.cost().treeCost(r.rt.size(), 8*len(data)) * 2 // reduce + broadcast phases
	r.contrib = data
	out := r.collective(collAllreduce, &r.contrib, func(entries []float64, payloads []any) (any, float64) {
		return op.reduce("Allreduce", payloads), maxOf(entries) + cost
	})
	r.contrib = nil
	return out.([]float64)
}

// Gather collects every rank's payload at all ranks (an allgather; the
// checkpoint toolkit uses it for group coordination).
//
//mlckpt:fiber
func (r *Rank) Gather(data []byte) [][]byte {
	payload := append([]byte(nil), data...)
	// Cost from the total gathered volume: per-rank contributions may have
	// different sizes (uneven block partitions), and the closure runs on
	// whichever rank arrives last, so it must not price the operation off
	// any single caller's argument. Virtual time has to be a pure function
	// of the communicated data, never of rank execution order.
	cm, size := r.rt.cost(), r.rt.size()
	out := r.collective(collGather, payload, func(entries []float64, payloads []any) (any, float64) {
		all := make([][]byte, len(payloads))
		total := 0
		for i, p := range payloads {
			all[i] = p.([]byte)
			total += len(all[i])
		}
		return all, maxOf(entries) + cm.treeCost(size, total)
	})
	return out.([][]byte)
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, v := range xs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, v := range xs[1:] {
		if v < m {
			m = v
		}
	}
	return m
}
