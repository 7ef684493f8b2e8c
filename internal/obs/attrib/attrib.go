// Package attrib is the waste-attribution engine: it decomposes a
// simulated (or fault-injected real) run's virtual wall clock into the
// paper's E(T_w) buckets — productive work, per-level checkpoint overhead
// C_i, per-level recovery R_i, re-executed lost work, and detection
// latency — from the spans the run emitted on its obs trace track
// (Formula 21 measured instead of modeled).
//
// The engine walks one track's events in append order, which is the
// deterministic program order of the simulator: event start times are
// non-decreasing, and the wall clock advances either inside an emitted
// span (checkpoint, recovery, ...) or in the gaps between spans
// (productive or re-executed work). All accounting is exact rational
// arithmetic (math/big.Rat) over the trace's float64 timestamps, so the
// buckets sum to the run's wall clock EXACTLY — not approximately — and
// the whole report is a pure function of the trace bytes: byte-identical
// across worker counts and across the mpisim event/goroutine engines,
// because the traces themselves are.
//
// One subtlety makes the exact identity possible: the simulator advances
// its float64 clock with `wall += dur`, and fl(wall+dur) can round below
// wall+dur, so a span's rational duration may overhang the next event's
// start by an ulp. The engine charges min(dur, next_start − cursor) to the
// span's bucket and records the overhang in Report.Clipped; an overhang
// beyond ClipTolerance means the trace is structurally broken (overlapping
// spans), not rounded, and attribution fails loudly.
package attrib

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"sort"
	"strings"

	"mlckpt/internal/model"
	"mlckpt/internal/obs"
)

// ErrAttrib is wrapped by all attribution failures.
var ErrAttrib = errors.New("attrib: trace not attributable")

// ErrTruncated marks a track cut short by the run's ObsMaxEvents budget:
// the buckets cannot reach the wall clock, so attribution refuses.
var ErrTruncated = fmt.Errorf("%w: trace truncated (raise sim.Config.ObsMaxEvents)", ErrAttrib)

// ErrModelDiverged marks a configuration whose Formula 21 fixed point does
// not exist: the failure feedback exceeds unity, so E(T_w) is infinite
// even though individual runs may still complete. The measured attribution
// stands on its own; only the model comparison is unavailable.
var ErrModelDiverged = fmt.Errorf("%w: model wall clock diverged (no finite E(T_w) fixed point)", ErrAttrib)

// ClipTolerance is the largest span-over-next-event overhang (seconds)
// still explained by float64 clock rounding. Beyond it the track has
// genuinely overlapping spans.
const ClipTolerance = 1e-3

// Report is the decomposition of one run's wall clock. All buckets are in
// virtual (simulated) seconds; level keys are 1-based like the paper's
// C_i/R_i, with Recovery[0] meaning restart-from-scratch. The exact
// rational identity Σ buckets == WallClock is checked during construction;
// the float64 fields shown here are the rounded views of those rationals.
type Report struct {
	Track     string  `json:"track"`
	WallClock float64 `json:"wall_clock"` // the run's complete timestamp

	Work float64 `json:"work"` // first-time productive work
	Redo float64 `json:"redo"` // re-executed lost work

	Ckpt            map[int]float64 `json:"ckpt"`      // first-time checkpoints per level
	CkptRedo        float64         `json:"ckpt_redo"` // re-taken checkpoints after rollback
	CkptAborted     float64         `json:"ckpt_aborted"`
	CkptAbortedRedo float64         `json:"ckpt_aborted_redo"`

	Recovery        map[int]float64 `json:"recovery"` // per restore level; 0 = scratch
	RecoveryAborted float64         `json:"recovery_aborted"`
	Alloc           float64         `json:"alloc"`     // allocation spans (real runs)
	Detection       float64         `json:"detection"` // silent-error detection latency (real runs)

	Failures map[int]int `json:"failures"` // failures per class (1-based)
	Absorbed int         `json:"absorbed"` // correlated-window merged failures

	Complete bool    `json:"complete"` // a "complete" instant closed the track
	Clipped  float64 `json:"clipped"`  // Σ rounding overhang absorbed (diagnostic)
	Exact    bool    `json:"exact"`    // rational identity Σ buckets == WallClock held
}

// rat converts a trace float64 to an exact rational.
func rat(v float64) *big.Rat { return new(big.Rat).SetFloat64(v) }

// builder accumulates the rational buckets while walking a track.
type builder struct {
	cursor   *big.Rat // how much wall clock the buckets explain so far
	work     *big.Rat
	redo     *big.Rat
	buckets  map[string]*big.Rat // keyed bucket name, e.g. "ckpt/2"
	progress *big.Rat            // resynced execution progress (parallel seconds)
	furthest *big.Rat            // furthest progress ever resynced
	clipped  *big.Rat
	rep      *Report
}

func newBuilder(track string) *builder {
	return &builder{
		cursor:   new(big.Rat),
		work:     new(big.Rat),
		redo:     new(big.Rat),
		buckets:  map[string]*big.Rat{},
		progress: new(big.Rat),
		furthest: new(big.Rat),
		clipped:  new(big.Rat),
		rep: &Report{
			Track:    track,
			Ckpt:     map[int]float64{},
			Recovery: map[int]float64{},
			Failures: map[int]int{},
		},
	}
}

func (b *builder) charge(key string, amount *big.Rat) {
	r, ok := b.buckets[key]
	if !ok {
		r = new(big.Rat)
		b.buckets[key] = r
	}
	r.Add(r, amount)
	b.cursor.Add(b.cursor, amount)
}

// gap attributes un-spanned wall clock [cursor, upTo) to work or redo:
// the slice below the furthest progress ever reached is re-execution.
func (b *builder) gap(upTo *big.Rat) error {
	d := new(big.Rat).Sub(upTo, b.cursor)
	if d.Sign() < 0 {
		return fmt.Errorf("%w: event at %s starts before the clock cursor %s",
			ErrAttrib, upTo.FloatString(9), b.cursor.FloatString(9))
	}
	if d.Sign() == 0 {
		return nil
	}
	redoPart := new(big.Rat).Sub(b.furthest, b.progress)
	if redoPart.Sign() < 0 {
		redoPart.SetInt64(0)
	}
	if redoPart.Cmp(d) > 0 {
		redoPart.Set(d)
	}
	b.redo.Add(b.redo, redoPart)
	b.work.Add(b.work, new(big.Rat).Sub(d, redoPart))
	b.progress.Add(b.progress, d)
	b.cursor.Set(upTo)
	return nil
}

// resync pins progress to an authoritative value carried on an event.
func (b *builder) resync(v float64) {
	b.progress = rat(v)
	if b.progress.Cmp(b.furthest) > 0 {
		b.furthest.Set(b.progress)
	}
}

// span charges a span's duration, clipped to the next cursor-advancing
// event's start (float rounding absorbs at most ClipTolerance).
func (b *builder) span(ev obs.TrackEvent, key string, nextStart *big.Rat) error {
	dur := rat(ev.Dur)
	if dur.Sign() < 0 {
		return fmt.Errorf("%w: span %q at %g has negative duration %g", ErrAttrib, ev.Name, ev.TS, ev.Dur)
	}
	avail := new(big.Rat).Sub(nextStart, b.cursor)
	if dur.Cmp(avail) > 0 {
		clip := new(big.Rat).Sub(dur, avail)
		if f, _ := clip.Float64(); f > ClipTolerance {
			return fmt.Errorf("%w: span %q at %g overlaps the next event by %g s (beyond rounding)",
				ErrAttrib, ev.Name, ev.TS, f)
		}
		b.clipped.Add(b.clipped, clip)
		dur = avail
	}
	b.charge(key, dur)
	return nil
}

// FromTrace attributes one track of a trace. The track must be a complete
// run track (simulator or fault-injected real run); solver and mpisim
// tracks are rejected with an error identifying the unrecognized event.
func FromTrace(tr *obs.Trace, track string) (*Report, error) {
	evs := tr.Events(track)
	if len(evs) == 0 {
		return nil, fmt.Errorf("%w: track %q has no events", ErrAttrib, track)
	}
	b := newBuilder(track)
	real := false
	for _, ev := range evs {
		if ev.Name == "segment" {
			real = true
			break
		}
	}

	// nextStart returns the start of the next cursor-advancing event,
	// skipping instants that deliberately carry off-cursor timestamps.
	nextStart := func(k int) (*big.Rat, error) {
		for _, ev := range evs[k+1:] {
			if ev.Name == "failure-absorbed" {
				continue
			}
			return rat(ev.TS), nil
		}
		return nil, fmt.Errorf("%w: span %q at %g is the track's last event (no \"complete\")",
			ErrAttrib, evs[k].Name, evs[k].TS)
	}

	for k, ev := range evs {
		switch ev.Name {
		case "trace-truncated":
			return nil, ErrTruncated
		case "failure-absorbed":
			// Timestamped at the absorbed event's own arrival, which may
			// lie beyond the current wall clock: no cursor movement.
			b.rep.Absorbed++
			continue
		}
		if err := b.gap(rat(ev.TS)); err != nil {
			return nil, err
		}
		var ns *big.Rat
		if ev.Span() {
			var err error
			if ns, err = nextStart(k); err != nil {
				return nil, err
			}
		}
		var err error
		if real {
			err = b.realEvent(ev, ns)
		} else {
			err = b.simEvent(ev, ns)
		}
		if err != nil {
			return nil, err
		}
	}
	if !b.rep.Complete {
		return nil, fmt.Errorf("%w: track %q never completed", ErrAttrib, track)
	}
	b.finish()
	return b.rep, nil
}

// simEvent handles the internal/sim vocabulary.
func (b *builder) simEvent(ev obs.TrackEvent, ns *big.Rat) error {
	switch ev.Name {
	case "checkpoint":
		b.resync(ev.Arg("progress"))
		key := fmt.Sprintf("ckpt/%d", int(ev.Arg("level")))
		if ev.Arg("redo") != 0 {
			key = "ckpt-redo"
		}
		return b.span(ev, key, ns)
	case "checkpoint-abort":
		b.resync(ev.Arg("progress"))
		key := "ckpt-aborted"
		if ev.Arg("redo") != 0 {
			key = "ckpt-aborted-redo"
		}
		return b.span(ev, key, ns)
	case "recovery":
		return b.span(ev, fmt.Sprintf("recovery/%d", int(ev.Arg("restore_level"))), ns)
	case "recovery-abort":
		return b.span(ev, "recovery-aborted", ns)
	case "failure":
		b.rep.Failures[int(ev.Arg("class"))]++
		b.resync(ev.Arg("progress"))
		return nil
	case "rollback":
		b.resync(ev.Arg("to"))
		return nil
	case "complete":
		b.rep.Complete = true
		b.rep.WallClock = ev.TS
		b.resync(ev.Arg("progress"))
		return nil
	}
	return fmt.Errorf("%w: unrecognized sim event %q at %g", ErrAttrib, ev.Name, ev.TS)
}

// realEvent handles the fault-injected real-run vocabulary emitted by
// internal/experiments (fti + mpisim underneath). A segment span carries
// its own measured sub-splits as args; the work part is the exact
// remainder, so the identity telescopes the same way.
func (b *builder) realEvent(ev obs.TrackEvent, ns *big.Rat) error {
	switch ev.Name {
	case "segment":
		dur := rat(ev.Dur)
		avail := new(big.Rat).Sub(ns, b.cursor)
		if dur.Cmp(avail) > 0 {
			clip := new(big.Rat).Sub(dur, avail)
			if f, _ := clip.Float64(); f > ClipTolerance {
				return fmt.Errorf("%w: segment at %g overlaps the next event by %g s", ErrAttrib, ev.TS, f)
			}
			b.clipped.Add(b.clipped, clip)
			dur = avail
		}
		// The measured sub-splits (redo, per-level checkpoint seconds, aux
		// overheads) are charged against a remaining budget of the span's
		// duration; the exact remainder is work. Cumulative clipping keeps
		// the cursor advance equal to dur, preserving the telescoped
		// identity even when the float sub-splits overhang by rounding.
		remaining := new(big.Rat).Set(dur)
		chargePart := func(key string, v float64) error {
			if v == 0 {
				return nil
			}
			r := rat(v)
			if r.Sign() < 0 {
				return fmt.Errorf("%w: segment at %g: negative %s %g", ErrAttrib, ev.TS, key, v)
			}
			if r.Cmp(remaining) > 0 {
				clip := new(big.Rat).Sub(r, remaining)
				if f, _ := clip.Float64(); f > ClipTolerance {
					return fmt.Errorf("%w: segment at %g: %s exceeds the remaining duration by %g s",
						ErrAttrib, ev.TS, key, f)
				}
				b.clipped.Add(b.clipped, clip)
				r.Set(remaining)
			}
			b.charge(key, r)
			remaining.Sub(remaining, r)
			return nil
		}
		if err := chargePart("redo-part", ev.Arg("redo")); err != nil {
			return err
		}
		// Sort the ckpt_l* args for a deterministic charge order (the clip,
		// if any, must land on the same part every time).
		var ckptArgs []string
		for k := range ev.Args {
			if strings.HasPrefix(k, "ckpt_l") {
				ckptArgs = append(ckptArgs, k)
			}
		}
		sort.Strings(ckptArgs)
		for _, k := range ckptArgs {
			var lvl int
			if _, err := fmt.Sscanf(k, "ckpt_l%d", &lvl); err != nil {
				return fmt.Errorf("%w: segment at %g: bad arg %q", ErrAttrib, ev.TS, k)
			}
			if err := chargePart(fmt.Sprintf("ckpt/%d", lvl), ev.Args[k]); err != nil {
				return err
			}
		}
		if err := chargePart("ckpt-aborted", ev.Arg("aux")); err != nil {
			return err
		}
		b.charge("work", remaining)
		return nil
	case "alloc":
		return b.span(ev, "alloc", ns)
	case "recovery":
		if ev.Arg("ok") != 0 {
			return b.span(ev, fmt.Sprintf("recovery/%d", int(ev.Arg("level"))), ns)
		}
		return b.span(ev, "detection", ns)
	case "failure":
		b.rep.Failures[int(ev.Arg("class"))]++
		return nil
	case "complete":
		b.rep.Complete = true
		b.rep.WallClock = ev.TS
		return nil
	}
	return fmt.Errorf("%w: unrecognized real-run event %q at %g", ErrAttrib, ev.Name, ev.TS)
}

// finish folds the gap accumulators into the keyed buckets, converts the
// rationals to their float views, and checks the exact identity.
func (b *builder) finish() {
	sum := new(big.Rat).Add(b.work, b.redo)
	for _, r := range b.buckets {
		sum.Add(sum, r)
	}
	rep := b.rep
	rep.Exact = sum.Cmp(rat(rep.WallClock)) == 0
	rep.Clipped, _ = b.clipped.Float64()

	f := func(r *big.Rat) float64 { v, _ := r.Float64(); return v }
	rep.Work = f(b.work)
	rep.Redo = f(b.redo)
	keys := make([]string, 0, len(b.buckets))
	for key := range b.buckets {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		r := b.buckets[key]
		switch {
		case strings.HasPrefix(key, "ckpt/"):
			var lvl int
			fmt.Sscanf(key, "ckpt/%d", &lvl)
			rep.Ckpt[lvl] += f(r)
		case key == "ckpt-redo":
			rep.CkptRedo = f(r)
		case key == "ckpt-aborted":
			rep.CkptAborted = f(r)
		case key == "ckpt-aborted-redo":
			rep.CkptAbortedRedo = f(r)
		case strings.HasPrefix(key, "recovery/"):
			var lvl int
			fmt.Sscanf(key, "recovery/%d", &lvl)
			rep.Recovery[lvl] += f(r)
		case key == "recovery-aborted":
			rep.RecoveryAborted = f(r)
		case key == "alloc":
			rep.Alloc = f(r)
		case key == "detection":
			rep.Detection = f(r)
		case key == "work":
			rep.Work += f(r)
		case key == "redo-part":
			rep.Redo += f(r)
		}
	}
}

// Portions folds the fine-grained buckets into the paper's four Figure 5
// portions, matching internal/sim.Result's accounting exactly: first-time
// checkpoints (completed or aborted) are Checkpoint, everything re-executed
// or re-taken is Rollback, and allocation + recovery + detection is
// Restart.
func (r *Report) Portions() model.Portions {
	p := model.Portions{Productive: r.Work, Rollback: r.Redo + r.CkptRedo + r.CkptAbortedRedo}
	p.Checkpoint = r.CkptAborted
	for _, lvl := range sortedKeys(r.Ckpt) {
		p.Checkpoint += r.Ckpt[lvl]
	}
	p.Restart = r.RecoveryAborted + r.Alloc + r.Detection
	for _, lvl := range sortedKeys(r.Recovery) {
		p.Restart += r.Recovery[lvl]
	}
	return p
}

// Sum returns the float view of the bucket total (== WallClock up to float
// rounding of the individual buckets; the rational identity is Exact).
func (r *Report) Sum() float64 {
	s := r.Work + r.Redo + r.CkptRedo + r.CkptAborted + r.CkptAbortedRedo +
		r.RecoveryAborted + r.Alloc + r.Detection
	for _, lvl := range sortedKeys(r.Ckpt) {
		s += r.Ckpt[lvl]
	}
	for _, lvl := range sortedKeys(r.Recovery) {
		s += r.Recovery[lvl]
	}
	return s
}

// TotalFailures sums the per-class failure counts.
func (r *Report) TotalFailures() int {
	t := 0
	for _, n := range r.Failures {
		t += n
	}
	return t
}

// Render formats the report as a deterministic text table.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "track %s\n", r.Track)
	status := "exact"
	if !r.Exact {
		status = "INEXACT"
	}
	fmt.Fprintf(&b, "wall-clock %.6f s  (identity %s, clipped %.3g s)\n", r.WallClock, status, r.Clipped)
	row := func(label string, v float64) {
		if v == 0 {
			return
		}
		pct := 0.0
		if r.WallClock > 0 {
			pct = 100 * v / r.WallClock
		}
		fmt.Fprintf(&b, "  %-22s %16.6f s  %6.2f%%\n", label, v, pct)
	}
	row("work", r.Work)
	row("redo (lost work)", r.Redo)
	for _, lvl := range sortedKeys(r.Ckpt) {
		row(fmt.Sprintf("checkpoint L%d", lvl), r.Ckpt[lvl])
	}
	row("checkpoint redo", r.CkptRedo)
	row("checkpoint aborted", r.CkptAborted)
	row("ckpt aborted (redo)", r.CkptAbortedRedo)
	for _, lvl := range sortedKeys(r.Recovery) {
		label := fmt.Sprintf("recovery L%d", lvl)
		if lvl == 0 {
			label = "recovery (scratch)"
		}
		row(label, r.Recovery[lvl])
	}
	row("recovery aborted", r.RecoveryAborted)
	row("allocation", r.Alloc)
	row("detection latency", r.Detection)
	if r.TotalFailures() > 0 || r.Absorbed > 0 {
		fmt.Fprintf(&b, "  failures:")
		for _, cls := range sortedKeys(r.Failures) {
			fmt.Fprintf(&b, " class%d=%d", cls, r.Failures[cls])
		}
		if r.Absorbed > 0 {
			fmt.Fprintf(&b, " absorbed=%d", r.Absorbed)
		}
		b.WriteString("\n")
	}
	return b.String()
}

func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// CompareModel puts a measured portion breakdown next to the analytic
// model's Formula 21 expectation for the same configuration, as fractions
// of the respective wall clocks. MaxAbsDelta is the largest fraction
// discrepancy — single runs scatter around the expectation, so callers
// compare against a tolerance reflecting the run count.
type ModelComparison struct {
	Measured                    model.Portions `json:"measured"`  // fractions of the measured wall clock
	Predicted                   model.Portions `json:"predicted"` // fractions of the model's E(T_w)
	MeasuredWall, PredictedWall float64
	MaxAbsDelta                 float64 `json:"max_abs_delta"`
}

// CompareModel evaluates Formula 21 for (p, x, n) and compares the
// measured report against it.
func (r *Report) CompareModel(p *model.Params, x []float64, n float64) (ModelComparison, error) {
	wct, _, ok := p.SelfConsistentWallClock(x, n, 0, 0)
	if !ok {
		return ModelComparison{}, fmt.Errorf("%w (n=%g)", ErrModelDiverged, n)
	}
	mu := p.MuOfN(n, wct)
	pred := p.WallClockPortions(x, n, mu)
	meas := r.Portions()
	mc := ModelComparison{MeasuredWall: r.WallClock, PredictedWall: wct}
	mc.Measured = fractions(meas, r.WallClock)
	mc.Predicted = fractions(pred, wct)
	for _, d := range []float64{
		mc.Measured.Productive - mc.Predicted.Productive,
		mc.Measured.Checkpoint - mc.Predicted.Checkpoint,
		mc.Measured.Restart - mc.Predicted.Restart,
		mc.Measured.Rollback - mc.Predicted.Rollback,
	} {
		if a := math.Abs(d); a > mc.MaxAbsDelta {
			mc.MaxAbsDelta = a
		}
	}
	return mc, nil
}

func fractions(p model.Portions, wall float64) model.Portions {
	if wall <= 0 {
		return model.Portions{}
	}
	return model.Portions{
		Productive: p.Productive / wall,
		Checkpoint: p.Checkpoint / wall,
		Restart:    p.Restart / wall,
		Rollback:   p.Rollback / wall,
	}
}
