package sim

import "math"

// scheduleCap bounds the states of a schedule, and with them its memory
// (24 bytes a state), whatever x is: the facade accepts any finite x ≥ 1,
// and an x of 10⁹ would otherwise ask for 10⁹ states. A run that walks
// past the cap continues on the mark machine. The plans of the paper's
// evaluation grid at T_e = 3M core-days need up to 31,080 states, those
// at 0.3M about 3,100.
const scheduleCap = 1 << 15

// schedule is the mark machine's failure-free trajectory for one P and x:
// the checkpoint marks and due levels the machine visits from its initial
// state, stepped by the machine's own code (initMarks, due, advance) with
// progress at each due mark. It is a pure function of P and x, so RunMany
// builds it once and every run of the batch walks it read-only: a run on
// the chain steps to the next state where the machine would scan and
// advance its marks.
//
// State s (0 ≤ s < len(mark)) has due mark mark[s] and due level
// level[s], and a checkpoint there moves the run to state s+1. The marks
// strictly increase from mark[0] > 0, so a run reaches state s's
// checkpoint at progress == mark[s] bit for bit: the segment before it is
// always positive. A complete chain ends in a state whose due mark is at
// or past P, which no checkpoint leaves. An incomplete one ends where the
// cap cut it, or where the machine's next due mark would not increase; a
// checkpoint from its last state moves the run onto the machine, loaded
// with end.
type schedule struct {
	mark  []float64 // due mark of each state, in progress seconds
	level []int     // due level of each state
	// enter[s] is the state a strike restoring to state s's restore point
	// (progress 0 for s = 0, mark[s-1] otherwise) lands on: s when
	// strike's derivation from that point gives state s's interval
	// indices, and -1 when it does not or state s is off the chain, so
	// the run resumes on the machine. len(enter) == len(mark)+1.
	enter []int
	end   []int // the machine's interval indices after the last state's checkpoint
}

// newSchedule builds the schedule of periods P/x_i in two allocations,
// sized up front: a failure-free run takes at most Σ(⌈x_i − 1e-9⌉ − 1)
// checkpoints, since each one moves a finite mark of its level forward,
// and visits one state more. The machine steps in L + L scratch slots,
// which end keeps.
func newSchedule(P float64, x []float64) schedule {
	bound := 1.0
	for _, xi := range x {
		if xi-1e-9 > 1 {
			bound += math.Ceil(xi-1e-9) - 1
		}
	}
	n := scheduleCap // states the chain may hold
	if bound < scheduleCap {
		n = int(bound)
	}
	L := len(x)
	floats := make([]float64, n+L)
	ints := make([]int, 2*n+1+L)
	m := runner{cfg: Config{X: x}, L: L}
	m.initMarks(P, floats[n:], ints[2*n+1:])
	s := schedule{
		mark:  floats[:0:n],
		level: ints[:n:n],
		enter: ints[n : 2*n+1 : 2*n+1],
		end:   m.nextMark,
	}
	prev := 0.0 // state j's restore point: 0, then the mark checkpointed before it
	for {
		j := len(s.mark)
		s.enter[j] = -1
		due, d := m.due()
		if j == n || !(due > prev) {
			break // state j is off the chain
		}
		if m.derives(prev) {
			s.enter[j] = j
		}
		s.mark = append(s.mark, due)
		if due >= P {
			s.enter[j+1] = -1
			break
		}
		s.level[j] = d
		m.advance(d, due)
		prev = due
	}
	s.level = s.level[:len(s.mark)]
	s.enter = s.enter[:len(s.mark)+1]
	return s
}

// leaveChain moves a run that checkpointed at the last state of an
// incomplete chain onto the machine, in the chain's end state.
func (r *runner) leaveChain() {
	copy(r.nextMark, r.sched.end)
	r.pos = -1
}
