package mpisim

import (
	"fmt"

	"mlckpt/internal/eventq"
	"mlckpt/internal/obs"
)

// evRuntime is the run-to-completion event engine, the default since the
// scheduler rewrite (docs/SCHEDULER.md).
//
// The engine maintains one invariant: exactly one goroutine is ever
// executing — either a rank's program or the scheduler loop. Control moves
// by explicit baton handoff (a send on a fiber's buffered resume channel,
// or spawning a fresh scheduler loop), never by preemption. Consequences:
//
//   - No locks. Every field of evRuntime is mutated only by the goroutine
//     holding the baton, and every handoff is a channel send or a go
//     statement, both of which publish those writes (happens-before), so
//     the engine is race-detector-clean without a single mutex.
//   - Deterministic execution order. The next rank to run is chosen from
//     an eventq ordered by (virtual resume time, rank id) — a pure
//     function of the program, never of the Go scheduler.
//   - Lazy stacks. A rank that never blocks runs inline on the current
//     goroutine's stack; goroutines are created only when a blocked rank
//     forces the scheduler onto a fresh stack (passBaton). A program whose
//     ranks never block — or a collective-free segment — spawns none.
//   - Deadlocks are errors, not hangs. If every live rank is blocked the
//     run aborts with ErrRuntime instead of wedging the test binary, and
//     unlike the goroutine engine no rank goroutines are leaked: every
//     fiber is unwound before Run returns.
//
// Rank programs inherit one obligation from the cooperative discipline:
// they may block only through mpisim operations (Recv, Wait, collectives).
// Blocking on external synchronization that another rank must release
// mid-segment (an unbuffered channel handshake, a held mutex) stalls the
// whole engine, because the rank that would release it is not scheduled
// until the current one yields. See docs/SCHEDULER.md for the contract.
type evRuntime struct {
	nranks int
	cm     CostModel
	rec    obs.Recorder
	track  string
	fn     func(*Rank)

	ranks  []Rank  // contiguous slab; rank i is &ranks[i]
	fibers []fiber // contiguous slab; fiber i is &fibers[i]

	// q holds runnable fibers keyed by the virtual time at which they
	// resume (0 for unstarted fibers): the engine always runs the
	// runnable rank with the smallest clock, ties in rank order.
	q eventq.Queue

	// coll is the arrival record of the one collective in flight. All
	// collectives are global, so a rank can enter the next one only after
	// every rank has entered this one: one record, sized to the world
	// once, serves every collective of the run.
	coll evColl

	// free recycles message payload buffers like the goroutine engine's
	// sync.Pool, but as a plain stack: with one goroutine active there is
	// nothing to synchronize, and buffer identity becomes deterministic
	// too (not just buffer contents).
	free []*[]byte

	live     int // fibers not yet done
	aborted  bool
	panicID  int
	panicVal any
	abortErr error
	done     chan struct{} // closed by the last active goroutine
}

type fiberState uint8

const (
	fibNew     fiberState = iota // never run; queued at time 0
	fibRunning                   // holds the baton
	fibBlocked                   // parked in park(), waiting for an event
	fibReady                     // event arrived; queued for resumption
	fibDone
)

// fiber is the scheduling state of one rank. A fiber's continuation lives
// on whichever goroutine first ran it inline; resume is how the baton
// reaches it (buffered so the resumer never blocks, even if the fiber has
// not yet reached its receive).
type fiber struct {
	id     int
	state  fiberState
	resume chan struct{}

	// inbox holds one mailbox per (src, tag) channel that has carried a
	// message to this rank, in first-delivery order. A rank receives on
	// few channels (at most two in the Figure 4 runs, four for a block
	// stencil's N/S/E/W neighbours), so a linear scan replaces a
	// runtime-wide map.
	inbox []*mailbox

	// The receive the fiber is blocked on, valid while waitMsg is set.
	wantSrc, wantTag int
	waitMsg          bool
}

// mailboxFrom returns the fiber's mailbox for (src, tag), or nil if that
// channel has carried no message yet.
func (f *fiber) mailboxFrom(src, tag int) *mailbox {
	for _, mb := range f.inbox {
		if mb.src == src && mb.tag == tag {
			return mb
		}
	}
	return nil
}

// evColl is the in-flight collective: arrival slots plus the fibers parked
// in it, woken together (in arrival order) by the last arriver.
type evColl struct {
	key      collKey
	arrived  int
	entries  []float64
	payloads []any
	exit     float64
	result   any
	waiters  []*fiber
}

// runEvent executes fn as size ranks under the event engine. The calling
// goroutine becomes the first scheduler; it may end up hosting a fiber's
// continuation, so completion is signalled on rt.done by whichever
// goroutine is active last.
func runEvent(size int, cost CostModel, fn func(*Rank), rec obs.Recorder, track string) (float64, error) {
	rt := &evRuntime{
		nranks: size,
		cm:     cost,
		rec:    rec,
		track:  track,
		fn:     fn,
		coll: evColl{
			entries:  make([]float64, size),
			payloads: make([]any, size),
			waiters:  make([]*fiber, 0, size),
		},
		live: size,
		done: make(chan struct{}),
	}
	rt.ranks = make([]Rank, size)
	rt.fibers = make([]fiber, size)
	for i := range rt.ranks {
		rt.ranks[i].id = i
		rt.ranks[i].rt = rt
		rt.ranks[i].fib = &rt.fibers[i]
		rt.fibers[i].id = i
		rt.q.Push(0, int64(i))
	}
	rt.schedule()
	<-rt.done
	if rt.panicVal != nil {
		return 0, fmt.Errorf("%w: rank %d panicked: %v", ErrRuntime, rt.panicID, rt.panicVal)
	}
	if rt.abortErr != nil {
		return 0, rt.abortErr
	}
	wall := finishRun(rec, track, size, func(i int) float64 { return rt.ranks[i].clock })
	return wall, nil
}

// schedule is the baton loop: run by whichever goroutine is active, it
// executes runnable fibers until it hands the baton to a parked fiber
// (return after resume) or the run completes (close done, return).
func (rt *evRuntime) schedule() {
	for {
		if rt.aborted {
			rt.drainAborted()
			return
		}
		if rt.q.Len() == 0 {
			if rt.live > 0 {
				// No fiber is runnable, none is active (we hold the
				// baton), and live fibers remain: every one of them is
				// parked on an event that can no longer occur.
				rt.aborted = true
				rt.abortErr = fmt.Errorf("%w: deadlock: all ranks blocked", ErrRuntime)
				continue
			}
			close(rt.done)
			return
		}
		f := &rt.fibers[rt.q.Pop().Payload]
		switch f.state {
		case fibNew:
			f.state = fibRunning
			rt.runFiber(f)
			// runFiber returns when f's program completes, however many
			// park/resume cycles that takes; this goroutine is the active
			// one again, so keep scheduling.
		case fibReady:
			f.state = fibRunning
			f.resume <- struct{}{}
			return
		}
	}
}

// runFiber executes one rank's program inline and absorbs its termination:
// normal return, a real panic (recorded, aborts the run), or an
// abortSentinel unwind (already accounted for by whoever aborted).
func (rt *evRuntime) runFiber(f *fiber) {
	defer func() {
		if p := recover(); p != nil {
			if _, sentinel := p.(abortSentinel); !sentinel && !rt.aborted {
				rt.aborted = true
				rt.panicID = f.id
				rt.panicVal = p
			}
		}
		f.state = fibDone
		rt.live--
	}()
	rt.fn(&rt.ranks[f.id])
}

// park blocks the current fiber until an event resumes it. The baton is
// passed first — to the next runnable fiber directly, or to a fresh
// scheduler goroutine when the next runnable has never started (an
// unstarted program needs a stack of its own, and ours is occupied).
//
//mlckpt:baton the engine's one sanctioned block: the baton is passed before the receive, and a failed pass aborts instead of wedging
func (rt *evRuntime) park(f *fiber) {
	if f.resume == nil {
		f.resume = make(chan struct{}, 1)
	}
	f.state = fibBlocked
	if !rt.passBaton() {
		// Nothing runnable anywhere: this fiber blocking would wedge the
		// run. Turn the would-be hang into an error and unwind.
		rt.aborted = true
		rt.abortErr = fmt.Errorf("%w: deadlock: all ranks blocked", ErrRuntime)
		f.state = fibRunning
		panic(abortSentinel{})
	}
	<-f.resume
	if rt.aborted {
		panic(abortSentinel{})
	}
}

// passBaton activates the next runnable fiber and reports whether there
// was one. Called only from a fiber about to park, so an unstarted next
// fiber cannot run on this stack — that is the single place the event
// engine creates a goroutine.
func (rt *evRuntime) passBaton() bool {
	if rt.q.Len() == 0 {
		return false
	}
	next := &rt.fibers[rt.q.Min().Payload]
	if next.state == fibReady {
		rt.q.Pop()
		next.state = fibRunning
		next.resume <- struct{}{}
		return true
	}
	go rt.schedule()
	return true
}

// drainAborted unwinds the remaining fibers after an abort, one at a time
// to preserve the single-active-goroutine invariant: resume one parked
// fiber (it panics abortSentinel out of its program, and its host
// goroutine's schedule loop re-enters this drain), discard unstarted ones.
// The goroutine that finds nothing left signals completion.
func (rt *evRuntime) drainAborted() {
	for i := range rt.fibers {
		f := &rt.fibers[i]
		switch f.state {
		case fibNew:
			f.state = fibDone
			rt.live--
		case fibBlocked, fibReady:
			f.state = fibRunning
			f.resume <- struct{}{}
			return
		}
	}
	close(rt.done)
}

func (rt *evRuntime) size() int       { return rt.nranks }
func (rt *evRuntime) cost() CostModel { return rt.cm }

// copyBuf mirrors the goroutine engine's pool discipline: pop one
// candidate buffer; reuse it if large enough, otherwise allocate (the
// too-small candidate is dropped, as sync.Pool drops unsuitable gets).
func (rt *evRuntime) copyBuf(data []byte) ([]byte, *[]byte) {
	buf, p := rt.getBuf(len(data))
	copy(buf, data)
	return buf, p
}

// getBuf returns an uninitialized pooled buffer of length n for a caller
// that fills it in place (the float-payload send path encodes directly
// into it, skipping the intermediate byte staging a copyBuf send needs).
func (rt *evRuntime) getBuf(n int) ([]byte, *[]byte) {
	if len(rt.free) > 0 {
		cand := rt.free[len(rt.free)-1]
		rt.free = rt.free[:len(rt.free)-1]
		if cap(*cand) >= n {
			*cand = (*cand)[:n]
			return *cand, cand
		}
	}
	b := make([]byte, n)
	return b, &b
}

func (rt *evRuntime) recycle(p *[]byte) {
	rt.free = append(rt.free, p)
}

// mailbox is one (src, dst, tag) channel's FIFO, held in dst's inbox.
// Draining advances head instead of re-slicing so the backing array is
// reused once the box empties — the event-engine analogue of the
// oracle's long-lived buffered channels (a re-sliced queue reallocates on
// every message).
type mailbox struct {
	src, tag int
	msgs     []message
	head     int
}

func (mb *mailbox) push(m message) {
	if mb.head == len(mb.msgs) {
		mb.msgs, mb.head = mb.msgs[:0], 0
	}
	mb.msgs = append(mb.msgs, m)
}

func (mb *mailbox) pop() (message, bool) {
	if mb.head == len(mb.msgs) {
		return message{}, false
	}
	m := mb.msgs[mb.head]
	mb.msgs[mb.head] = message{} // release payload references for reuse
	mb.head++
	return m, true
}

// deliver appends the message to its channel queue and, if the receiver is
// parked on exactly this channel, marks it runnable at the virtual time
// the receive will complete: max(receiver clock, arrival).
//
//mlckpt:hotpath
func (rt *evRuntime) deliver(r *Rank, dst, tag int, m message) {
	df := &rt.fibers[dst]
	mb := df.mailboxFrom(r.id, tag)
	if mb == nil {
		mb = &mailbox{}
		mb.src, mb.tag = r.id, tag
		df.inbox = append(df.inbox, mb)
	}
	mb.push(m)
	if df.state == fibBlocked && df.waitMsg && df.wantSrc == r.id && df.wantTag == tag {
		df.waitMsg = false
		df.state = fibReady
		wake := rt.ranks[dst].clock
		if m.arrival > wake {
			wake = m.arrival
		}
		rt.q.Push(wake, int64(dst))
	}
}

// await returns the next message on (src, tag), parking until one is
// delivered. FIFO per channel, matching the oracle's buffered chans.
//
//mlckpt:hotpath
func (rt *evRuntime) await(r *Rank, src, tag int) message {
	f := r.fib
	for {
		if mb := f.mailboxFrom(src, tag); mb != nil {
			if m, ok := mb.pop(); ok {
				return m
			}
		}
		f.wantSrc, f.wantTag, f.waitMsg = src, tag, true
		rt.park(f)
	}
}

// rendezvous implements the collective protocol: arrivals deposit entry
// clock and payload in the run's one arrival record; the last arriver runs
// compute, emits the span, wakes every parked participant at the common
// exit time and resets the record for the next collective.
//
// Waiters read result and exit from the record after the reset. Both stay
// put until the next collective completes, and that needs every rank —
// each waiter included — to have returned from this one and arrived there.
func (rt *evRuntime) rendezvous(r *Rank, key collKey, payload any, compute collCompute) (any, float64) {
	op := &rt.coll
	if op.arrived == 0 {
		op.key = key
	} else if op.key != key {
		// Mismatched collectives: completing either one needs every rank,
		// this one included, so neither ever completes. Park for good; the
		// scheduler reports the deadlock once no rank can run.
		rt.park(r.fib)
	}
	op.entries[r.id] = r.clock
	op.payloads[r.id] = payload
	op.arrived++
	if op.arrived == rt.nranks {
		op.result, op.exit = compute(op.entries, op.payloads)
		emitCollSpan(rt.rec, rt.track, key, op.entries, op.exit)
		for _, w := range op.waiters {
			w.state = fibReady
			rt.q.Push(op.exit, int64(w.id))
		}
		op.arrived, op.waiters = 0, op.waiters[:0]
		clear(op.payloads) // release the payloads' references
		return op.result, op.exit
	}
	op.waiters = append(op.waiters, r.fib)
	rt.park(r.fib)
	return op.result, op.exit
}
