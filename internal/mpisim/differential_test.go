package mpisim

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mlckpt/internal/obs"
)

// This file is the differential harness between the two execution engines:
// randomized SPMD programs run on both the event scheduler and the
// goroutine oracle, and everything observable must match bit for bit —
// virtual wall clock, per-rank final clocks, an FNV-1a digest of every
// byte each rank received (in program order), the stripped metrics
// snapshot, and the exported trace bytes. The engines share the cost
// arithmetic by construction (the ops layer in mpisim.go), so any
// divergence found here is a scheduler bug: lost or reordered messages,
// wrong rendezvous membership, a wake at the wrong virtual time.

// phaseKind enumerates the operations the program generator mixes.
type phaseKind int

const (
	phCompute phaseKind = iota
	phRingShift
	phPairwise
	phBcast
	phScatter
	phGather
	phAllreduce
	phReduce
	phBarrier
	phMesh
	numPhaseKinds
)

// diffPhase is one step of a generated program. All ranks execute every
// phase (collectives here are global); per-rank asymmetry comes from the
// sizes/secs slices.
type diffPhase struct {
	kind   phaseKind
	root   int       // bcast/scatter/reduce root
	stride int       // ring/mesh shift distance
	tag    int       // point-to-point tag
	op     ReduceOp  // allreduce/reduce operator
	width  int       // allreduce/reduce vector width
	sizes  []int     // per-rank payload sizes (uneven on purpose)
	secs   []float64 // per-rank compute durations
}

// genProgram draws a random program of n phases for p ranks. Everything is
// derived from the seeded rng, so a (seed, p, n) triple names one program.
func genProgram(rng *rand.Rand, p, n int) []diffPhase {
	phases := make([]diffPhase, n)
	for i := range phases {
		ph := diffPhase{
			kind:   phaseKind(rng.Intn(int(numPhaseKinds))),
			root:   rng.Intn(p),
			stride: 1 + rng.Intn(p),
			tag:    rng.Intn(3),
			op:     ReduceOp(rng.Intn(3)),
			width:  1 + rng.Intn(4),
			sizes:  make([]int, p),
			secs:   make([]float64, p),
		}
		for r := 0; r < p; r++ {
			ph.sizes[r] = rng.Intn(200) // uneven, sometimes zero
			ph.secs[r] = float64(rng.Intn(1000)) * 1e-6
		}
		phases[i] = ph
	}
	return phases
}

// payload builds the deterministic message body for (phase, rank).
func payload(phase, rank, size int) []byte {
	b := make([]byte, size)
	for j := range b {
		b[j] = byte(phase*31 + rank*7 + j)
	}
	return b
}

// vector builds the deterministic reduction contribution for (phase, rank).
func vector(phase, rank, width int) []float64 {
	v := make([]float64, width)
	for j := range v {
		v[j] = float64((phase+1)*(rank+3)*(j+1)%97) - 48
	}
	return v
}

func hashBytes(h *uint64, data []byte) {
	f := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], *h)
	f.Write(buf[:])
	f.Write(data)
	*h = f.Sum64()
}

func hashFloats(h *uint64, data []float64) {
	buf := make([]byte, 8*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	hashBytes(h, buf)
}

// diffOutcome is everything one engine run exposes for comparison.
type diffOutcome struct {
	wall    float64
	err     error
	clocks  []float64
	digests []uint64
	metrics []byte
	trace   []byte
}

// runProgram executes the generated program on the given engine and
// collects the outcome. Per-rank results land in rank-indexed slice slots,
// the one shared-write idiom that is race-free under both engines.
func runProgram(t *testing.T, engine Engine, p int, phases []diffPhase) diffOutcome {
	t.Helper()
	out := diffOutcome{
		clocks:  make([]float64, p),
		digests: make([]uint64, p),
	}
	col := obs.NewCollector()
	fn := func(r *Rank) {
		id := r.ID()
		h := &out.digests[id]
		for i, ph := range phases {
			switch ph.kind {
			case phCompute:
				r.Compute(ph.secs[id])
			case phRingShift:
				dst := (id + ph.stride) % p
				src := (id - ph.stride%p + p) % p
				rq := r.Irecv(src, ph.tag)
				r.Send(dst, ph.tag, payload(i, id, ph.sizes[id]))
				hashBytes(h, rq.Wait())
			case phPairwise:
				partner := id ^ 1
				if partner < p {
					hashBytes(h, r.SendRecv(partner, ph.tag, payload(i, id, ph.sizes[id]), partner, ph.tag))
				} else {
					r.Compute(ph.secs[id])
				}
			case phBcast:
				var data []byte
				if id == ph.root {
					data = payload(i, id, ph.sizes[ph.root])
				}
				hashBytes(h, r.Bcast(ph.root, data))
			case phScatter:
				var chunks [][]byte
				if id == ph.root {
					chunks = make([][]byte, p)
					for k := range chunks {
						chunks[k] = payload(i, k, ph.sizes[k])
					}
				}
				hashBytes(h, r.Scatter(ph.root, chunks))
			case phGather:
				for _, part := range r.Gather(payload(i, id, ph.sizes[id])) {
					hashBytes(h, part)
				}
			case phAllreduce:
				hashFloats(h, r.Allreduce(ph.op, vector(i, id, ph.width)))
			case phReduce:
				if res := r.Reduce(ph.root, ph.op, vector(i, id, ph.width)); id == ph.root {
					hashFloats(h, res)
				}
			case phBarrier:
				r.Barrier()
			case phMesh:
				// Every rank posts its receive, then sends — a full shift
				// permutation completed with Waitall.
				rq := r.Irecv((id-ph.stride%p+p)%p, ph.tag)
				r.Send((id+ph.stride)%p, ph.tag, payload(i, id, ph.sizes[id]))
				r.Waitall([]*Request{rq})
				hashBytes(h, rq.data)
			}
		}
		out.clocks[id] = r.Clock()
	}
	out.wall, out.err = RunObservedOn(engine, p, DefaultCostModel(), fn, col, "mpisim/diff")
	snap := col.Registry.Snapshot()
	snap.StripVolatile()
	metrics, err := snap.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	trace, err := json.Marshal(col.Trace)
	if err != nil {
		t.Fatal(err)
	}
	out.metrics, out.trace = metrics, trace
	return out
}

// compareOutcomes asserts every observable of the two engines matches
// exactly.
func compareOutcomes(t *testing.T, label string, ev, or diffOutcome) {
	t.Helper()
	if (ev.err == nil) != (or.err == nil) {
		t.Fatalf("%s: error mismatch: event=%v goroutine=%v", label, ev.err, or.err)
	}
	if ev.err != nil {
		return // both failed; per-rank state after an abort is unspecified
	}
	if ev.wall != or.wall {
		t.Errorf("%s: wall clock: event=%g goroutine=%g", label, ev.wall, or.wall)
	}
	for i := range ev.clocks {
		if ev.clocks[i] != or.clocks[i] {
			t.Errorf("%s: rank %d clock: event=%g goroutine=%g", label, i, ev.clocks[i], or.clocks[i])
		}
		if ev.digests[i] != or.digests[i] {
			t.Errorf("%s: rank %d payload digest: event=%#x goroutine=%#x", label, i, ev.digests[i], or.digests[i])
		}
	}
	if !bytes.Equal(ev.metrics, or.metrics) {
		t.Errorf("%s: stripped metrics differ:\nevent:\n%s\ngoroutine:\n%s", label, ev.metrics, or.metrics)
	}
	if !bytes.Equal(ev.trace, or.trace) {
		t.Errorf("%s: trace bytes differ:\nevent:\n%s\ngoroutine:\n%s", label, ev.trace, or.trace)
	}
}

// TestSchedulerDifferential is the main randomized sweep: programs over
// the full operation mix, uneven payloads, rank counts from 2 to 1024.
func TestSchedulerDifferential(t *testing.T) {
	ranks := []int{2, 3, 7, 64, 1024}
	for _, p := range ranks {
		seeds := 4
		phaseCount := 14
		if p >= 64 {
			seeds = 2
		}
		if p >= 1024 {
			if testing.Short() {
				continue
			}
			seeds, phaseCount = 1, 8
		}
		for s := 0; s < seeds; s++ {
			seed := int64(1000*p + s)
			t.Run(fmt.Sprintf("ranks=%d/seed=%d", p, seed), func(t *testing.T) {
				phases := genProgram(rand.New(rand.NewSource(seed)), p, phaseCount)
				ev := runProgram(t, EventEngine, p, phases)
				or := runProgram(t, GoroutineEngine, p, phases)
				compareOutcomes(t, fmt.Sprintf("p=%d seed=%d", p, seed), ev, or)
			})
		}
	}
}

// TestSchedulerDifferentialRepeated pins run-to-run determinism of the
// event engine itself: the same program yields byte-identical outcomes on
// every execution, not just outcomes equal to the oracle's.
func TestSchedulerDifferentialRepeated(t *testing.T) {
	phases := genProgram(rand.New(rand.NewSource(42)), 7, 14)
	first := runProgram(t, EventEngine, 7, phases)
	for i := 0; i < 10; i++ {
		again := runProgram(t, EventEngine, 7, phases)
		compareOutcomes(t, fmt.Sprintf("repeat %d", i), first, again)
	}
}

// TestSchedulerPanicParity: a rank panic aborts both engines with the same
// error text.
func TestSchedulerPanicParity(t *testing.T) {
	fn := func(r *Rank) {
		r.Barrier()
		if r.ID() == 2 {
			panic("rank 2 exploded")
		}
		r.Barrier() // never completes: rank 2 is gone
	}
	_, evErr := RunOn(EventEngine, 5, DefaultCostModel(), fn)
	_, orErr := RunOn(GoroutineEngine, 5, DefaultCostModel(), fn)
	if evErr == nil || orErr == nil {
		t.Fatalf("expected both engines to fail: event=%v goroutine=%v", evErr, orErr)
	}
	if !errors.Is(evErr, ErrRuntime) || evErr.Error() != orErr.Error() {
		t.Errorf("error mismatch:\nevent:     %v\ngoroutine: %v", evErr, orErr)
	}
}

// TestSchedulerDeadlockIsError: under the event engine, a program in which
// every rank blocks on a message that can never arrive fails loudly
// instead of wedging the test binary. (The goroutine oracle would hang
// here, which is exactly why the event engine is the default.)
func TestSchedulerDeadlockIsError(t *testing.T) {
	_, err := Run(4, DefaultCostModel(), func(r *Rank) {
		r.Recv((r.ID()+1)%4, 9) // nobody ever sends
	})
	if !errors.Is(err, ErrRuntime) {
		t.Fatalf("deadlocked program returned %v, want ErrRuntime", err)
	}
}

// TestMismatchedCollectivesIsError: ranks that enter different
// collectives can never complete either. The event engine parks the
// mismatched arrivals outside the in-flight arrival record, so the record
// is never mixed, and reports the deadlock.
func TestMismatchedCollectivesIsError(t *testing.T) {
	_, err := Run(4, DefaultCostModel(), func(r *Rank) {
		if r.ID() == 0 {
			r.Barrier()
			return
		}
		r.Allreduce(Sum, []float64{1})
	})
	if !errors.Is(err, ErrRuntime) || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("mismatched collectives returned %v, want an ErrRuntime deadlock", err)
	}
}

// FuzzSchedulerEquivalence lets the fuzzer search for scheduler
// divergence: any (seed, rank count, phase count) whose program runs
// cleanly must produce identical outcomes on both engines.
func FuzzSchedulerEquivalence(f *testing.F) {
	f.Add(int64(7), uint8(2), uint8(6))
	f.Add(int64(42), uint8(3), uint8(10))
	f.Add(int64(1001), uint8(7), uint8(14))
	f.Add(int64(64064), uint8(16), uint8(12))
	f.Fuzz(func(t *testing.T, seed int64, pRaw, nRaw uint8) {
		p := 2 + int(pRaw)%15 // 2..16 ranks
		n := 1 + int(nRaw)%16 // 1..16 phases
		phases := genProgram(rand.New(rand.NewSource(seed)), p, n)
		ev := runProgram(t, EventEngine, p, phases)
		or := runProgram(t, GoroutineEngine, p, phases)
		compareOutcomes(t, fmt.Sprintf("seed=%d p=%d n=%d", seed, p, n), ev, or)
	})
}
