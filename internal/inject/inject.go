// Package inject is the deterministic fault-injection engine: it compiles
// a Spec (fault classes and rates) into a Plan whose every decision is a
// pure function of (plan seed, fault identity), never of call order,
// goroutine scheduling, or worker count.
//
// A Plan answers questions the protected stack asks at well-defined hook
// points — "is the snapshot committed at (level, rank, version) silently
// corrupted?", "does the k-th PFS write fail on attempt a?", "does crash
// event e also take the victim's level-2 partner?" — and each answer is
// drawn from an RNG stream derived via stats.DeriveSeed from the plan
// seed and a canonical key naming that one decision. Two consequences:
//
//   - Byte-reproducibility: the same Spec and seed yield the same fault
//     plan on any machine, at any sweep worker count, in any hook-call
//     order. Chaos grids can therefore be golden-tested like every other
//     experiment in this repository.
//   - Composability: hooks in different layers (fti commit, storage PFS
//     path, the real-run recovery loop) need no shared mutable state; the
//     plan is read-only after Compile and safe for concurrent use.
//
// The fault classes mirror what the multilevel checkpoint literature
// attacks the hierarchy with: silent snapshot corruption (bit flips) and
// truncation per level (Aupy et al., silent error detection), correlated
// partner-pair and parity-holder crashes that defeat levels 2 and 3, a
// crash landing inside a checkpoint or recovery window, and transient
// parallel-file-system errors that force retries.
package inject

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"mlckpt/internal/stats"
)

// ErrSpec is returned for invalid fault specifications.
var ErrSpec = errors.New("inject: invalid spec")

// Spec declares the fault classes of a plan and their rates. All *Rate
// fields are probabilities in [0, 1]; a zero Spec injects nothing.
type Spec struct {
	// CorruptRate[i] is the probability that the snapshot committed at
	// level i+1 for one rank is silently corrupted at rest (bit flip or
	// truncation, split by TruncateFrac). Detection happens — if it
	// happens — at restore time, against the snapshot checksum.
	CorruptRate []float64 `json:"corrupt_rate,omitempty"`
	// TruncateFrac is the fraction of corruptions that truncate the
	// snapshot instead of flipping a bit (truncation also defeats
	// length-sensitive decoders, not just content checks).
	TruncateFrac float64 `json:"truncate_frac,omitempty"`

	// PartnerPairRate is the probability that a node-loss event also
	// takes the victim's level-2 partner — the correlated burst that
	// partner-copy checkpointing cannot survive.
	PartnerPairRate float64 `json:"partner_pair_rate,omitempty"`
	// ParityHolderRate is the probability that a node-loss event also
	// takes a parity holder of the victim's encoding group, eroding the
	// level-3 reconstruction margin.
	ParityHolderRate float64 `json:"parity_holder_rate,omitempty"`

	// CkptAbortRate is the probability that a given collective checkpoint
	// is struck mid-window: the in-flight checkpoint is destroyed and the
	// elapsed fraction of its cost is wasted.
	CkptAbortRate float64 `json:"ckpt_abort_rate,omitempty"`
	// RecoveryCrashRate is the probability that a crash strikes while a
	// recovery is in progress, forcing the survivors to re-survey and
	// possibly escalate to a higher rung.
	RecoveryCrashRate float64 `json:"recovery_crash_rate,omitempty"`

	// PFSWriteFailRate / PFSReadFailRate are per-attempt probabilities of
	// a transient parallel-file-system error; the storage layer retries
	// with bounded deterministic backoff.
	PFSWriteFailRate float64 `json:"pfs_write_fail_rate,omitempty"`
	PFSReadFailRate  float64 `json:"pfs_read_fail_rate,omitempty"`
}

// Validate checks that every rate is a probability.
func (s Spec) Validate() error {
	check := func(name string, v float64) error {
		if v < 0 || v > 1 || math.IsNaN(v) {
			return fmt.Errorf("%w: %s = %g", ErrSpec, name, v)
		}
		return nil
	}
	for i, r := range s.CorruptRate {
		if err := check(fmt.Sprintf("corrupt_rate[%d]", i), r); err != nil {
			return err
		}
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"truncate_frac", s.TruncateFrac},
		{"partner_pair_rate", s.PartnerPairRate},
		{"parity_holder_rate", s.ParityHolderRate},
		{"ckpt_abort_rate", s.CkptAbortRate},
		{"recovery_crash_rate", s.RecoveryCrashRate},
		{"pfs_write_fail_rate", s.PFSWriteFailRate},
		{"pfs_read_fail_rate", s.PFSReadFailRate},
	} {
		if err := check(f.name, f.v); err != nil {
			return err
		}
	}
	return nil
}

// FaultKind tags a snapshot corruption.
type FaultKind int

// Snapshot corruption kinds.
const (
	BitFlip  FaultKind = iota // flip one bit at Offset
	Truncate                  // cut the snapshot to Len bytes
)

func (k FaultKind) String() string {
	switch k {
	case BitFlip:
		return "bit-flip"
	case Truncate:
		return "truncate"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// Fault describes one snapshot corruption.
type Fault struct {
	Kind   FaultKind
	Offset int  // BitFlip: byte offset
	Bit    byte // BitFlip: mask with exactly one bit set
	Len    int  // Truncate: new length (< original)
}

// Apply mutates data in place per the fault and returns the (possibly
// shortened) slice. Out-of-range faults are clipped, never panic: the
// plan may have been compiled against a different size than the snapshot
// ended up with.
func (f Fault) Apply(data []byte) []byte {
	switch f.Kind {
	case BitFlip:
		if len(data) == 0 {
			return data
		}
		off := f.Offset
		if off >= len(data) || off < 0 {
			off = 0
		}
		bit := f.Bit
		if bit == 0 {
			bit = 1
		}
		data[off] ^= bit
		return data
	case Truncate:
		n := f.Len
		if n < 0 {
			n = 0
		}
		if n >= len(data) && len(data) > 0 {
			n = len(data) - 1
		}
		return data[:n]
	}
	return data
}

// Plan is a compiled, read-only fault plan. The zero value (and a nil
// *Plan) injects nothing, so callers thread it unconditionally.
type Plan struct {
	spec Spec
	seed uint64
}

// Compile validates the spec and binds it to a decision seed derived from
// the canonical (root, key) pair — the same derivation the sweep engine
// uses for job RNG streams, so a chaos grid cell's plan is part of its
// content identity.
func Compile(spec Spec, root uint64, key string) (*Plan, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Plan{spec: spec, seed: stats.DeriveSeed(root, key)}, nil
}

// MustCompile is Compile that panics on error, for tests and literal specs.
func MustCompile(spec Spec, root uint64, key string) *Plan {
	p, err := Compile(spec, root, key)
	if err != nil {
		panic(err)
	}
	return p
}

// Seed returns the derived decision seed (for labeling runs and traces).
func (p *Plan) Seed() uint64 {
	if p == nil {
		return 0
	}
	return p.seed
}

// decision returns the RNG stream of one named decision. Every stream is
// independent of every other and of the order streams are opened in.
//
// The stream's key is name and the decimal ids joined by '/', the bytes
// fmt.Sprintf("name/%d/%d", ...) produces, built in a stack buffer: a
// key of up to 32 bytes, the length of every key a run makes in practice,
// reaches DeriveSeed without a heap allocation (docs/FAULTS.md).
func (p *Plan) decision(name string, ids ...int) stats.RNG {
	var buf [80]byte // the longest key, "parity" and three 20-byte ids, takes 69
	b := append(buf[:0], name...)
	for _, id := range ids {
		b = append(b, '/')
		b = strconv.AppendInt(b, int64(id), 10)
	}
	return *stats.NewRNG(stats.DeriveSeed(p.seed, string(b)))
}

// SnapshotFault reports whether the snapshot committed for rank at the
// given level (1-based) and version is silently corrupted, and with what.
// size is the snapshot length in bytes.
func (p *Plan) SnapshotFault(level, rank, version, size int) (Fault, bool) {
	if p == nil || size <= 0 || level < 1 || level > len(p.spec.CorruptRate) {
		return Fault{}, false
	}
	rate := p.spec.CorruptRate[level-1]
	if rate <= 0 {
		return Fault{}, false
	}
	rng := p.decision("snap", level, rank, version)
	if rng.Float64() >= rate {
		return Fault{}, false
	}
	return p.drawFault(&rng, size), true
}

// ParityFault is SnapshotFault for a level-3 parity shard, identified by
// its encoding group and shard index instead of a rank.
func (p *Plan) ParityFault(group, shard, version, size int) (Fault, bool) {
	if p == nil || size <= 0 || len(p.spec.CorruptRate) < 3 {
		return Fault{}, false
	}
	rate := p.spec.CorruptRate[2]
	if rate <= 0 {
		return Fault{}, false
	}
	rng := p.decision("parity", group, shard, version)
	if rng.Float64() >= rate {
		return Fault{}, false
	}
	return p.drawFault(&rng, size), true
}

func (p *Plan) drawFault(rng *stats.RNG, size int) Fault {
	if rng.Float64() < p.spec.TruncateFrac {
		return Fault{Kind: Truncate, Len: rng.Intn(size)}
	}
	return Fault{Kind: BitFlip, Offset: rng.Intn(size), Bit: 1 << rng.Intn(8)}
}

// PairCrash reports whether crash event `event` (a monotone per-run crash
// counter) also takes the victim's level-2 partner.
func (p *Plan) PairCrash(event int) bool {
	if p == nil || p.spec.PartnerPairRate <= 0 {
		return false
	}
	rng := p.decision("pair", event)
	return rng.Float64() < p.spec.PartnerPairRate
}

// ParityCrash reports whether crash event `event` also takes a parity
// holder of the victim's encoding group.
func (p *Plan) ParityCrash(event int) bool {
	if p == nil || p.spec.ParityHolderRate <= 0 {
		return false
	}
	rng := p.decision("paritycrash", event)
	return rng.Float64() < p.spec.ParityHolderRate
}

// CkptAbort reports whether the seq-th collective checkpoint of the run
// (at the given 1-based level) is struck mid-window. The second return is
// the elapsed fraction of the checkpoint cost wasted before the strike,
// in (0, 1).
func (p *Plan) CkptAbort(level, seq int) (float64, bool) {
	if p == nil || p.spec.CkptAbortRate <= 0 {
		return 0, false
	}
	rng := p.decision("ckptabort", level, seq)
	if rng.Float64() >= p.spec.CkptAbortRate {
		return 0, false
	}
	// Strictly interior fraction: the strike lands inside the window.
	return 0.05 + 0.9*rng.Float64(), true
}

// RecoveryCrash reports whether a crash strikes during the attempt-th
// recovery pass of crash event `event`, and returns the 0-based failure
// class of the new crash. Classes are drawn uniformly from {1, 2, 3}
// (storage-damaging classes; a transient would not interrupt recovery).
func (p *Plan) RecoveryCrash(event, attempt int) (int, bool) {
	if p == nil || p.spec.RecoveryCrashRate <= 0 {
		return 0, false
	}
	rng := p.decision("recovcrash", event, attempt)
	if rng.Float64() >= p.spec.RecoveryCrashRate {
		return 0, false
	}
	return 1 + rng.Intn(3), true
}

// PFSWriteFails reports whether attempt `attempt` (0-based) of the op-th
// PFS write operation fails transiently.
func (p *Plan) PFSWriteFails(op, attempt int) bool {
	if p == nil || p.spec.PFSWriteFailRate <= 0 {
		return false
	}
	rng := p.decision("pfsw", op, attempt)
	return rng.Float64() < p.spec.PFSWriteFailRate
}

// PFSReadFails reports whether attempt `attempt` (0-based) of the op-th
// PFS read operation fails transiently.
func (p *Plan) PFSReadFails(op, attempt int) bool {
	if p == nil || p.spec.PFSReadFailRate <= 0 {
		return false
	}
	rng := p.decision("pfsr", op, attempt)
	return rng.Float64() < p.spec.PFSReadFailRate
}
