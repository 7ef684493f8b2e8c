// Package fti is a multilevel checkpoint toolkit in the style of FTI [13]:
// level 1 writes each rank's protected data to its node-local device,
// level 2 additionally copies it to a partner node, level 3 Reed–Solomon
// encodes it across an encoding group (internal/erasure does the real GF
// arithmetic), and level 4 writes to the shared parallel file system.
//
// It runs on the mpisim runtime: checkpoint and recovery calls advance the
// calling rank's virtual clock by the storage model's durations, while the
// checkpoint *contents* are real bytes held by a Cluster object that
// survives across mpisim runs. Failure injection works segment-wise: run
// the application to a failure point, call Cluster.Crash with the dead
// node set (which destroys exactly the storage a real crash would), ask
// BestRecovery which level can restore, and restart the application from
// the recovered bytes — the same usage pattern as FTI on a real machine.
//
// Which failures each level survives (Section II of the paper):
//
//	level 1: transient/software faults only — any node loss destroys it
//	level 2: node losses with no two partner-adjacent nodes lost
//	level 3: up to Parity node losses per encoding group
//	level 4: anything (the PFS is off-cluster)
package fti

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"mlckpt/internal/erasure"
	"mlckpt/internal/inject"
	"mlckpt/internal/mpisim"
	"mlckpt/internal/storage"
)

// Levels is the number of checkpoint levels, as in FTI.
const Levels = 4

// ErrFTI is returned for invalid configurations and unrecoverable states.
var ErrFTI = errors.New("fti: error")

// ErrCorrupt is returned when a snapshot fails its checksum on restore.
var ErrCorrupt = errors.New("fti: snapshot corrupt")

// ErrExhausted is returned by RestoreEscalating when every recovery rung
// failed; the error text names the last rung tried.
var ErrExhausted = errors.New("fti: recovery exhausted")

// crcTable is the Castagnoli polynomial (hardware-accelerated on amd64),
// used for every snapshot checksum.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Faulter is the injection hook consulted at commit time: it decides
// whether the snapshot just committed is silently corrupted at rest. A
// compiled inject.Plan satisfies it; nil disables injection. Identities
// passed for level-2 partner copies are the owner rank offset by the node
// count, so a rank's own copy and its partner copy corrupt independently.
type Faulter interface {
	SnapshotFault(level, rank, version, size int) (inject.Fault, bool)
	ParityFault(group, shard, version, size int) (inject.Fault, bool)
}

// Config parameterizes a Cluster.
type Config struct {
	GroupSize int               // RS data shards per encoding group (k)
	Parity    int               // RS parity shards per group (m)
	Hierarchy storage.Hierarchy // timing model
}

// DefaultConfig uses FTI-typical grouping: 8 data + 2 parity.
func DefaultConfig() Config {
	return Config{GroupSize: 8, Parity: 2, Hierarchy: storage.DefaultHierarchy()}
}

type snapshot struct {
	version int
	data    []byte
	sum     uint32 // CRC-32C of data at commit time, before any injected corruption
}

// ok reports whether the snapshot's bytes still match their commit-time
// checksum — the verify-on-restore primitive.
func (s snapshot) ok() bool {
	return crc32.Checksum(s.data, crcTable) == s.sum
}

// Cluster holds the persistent checkpoint state of a simulated machine: it
// outlives individual mpisim runs, so an application can be restarted
// against it after an injected failure.
type Cluster struct {
	mu    sync.Mutex
	nodes int
	cfg   Config
	code  *erasure.Code

	version int // last assigned checkpoint version

	local   []map[int]snapshot // level-1: [rank] -> version snapshot (own device)
	partner []map[int]snapshot // level-2 partner copy: [rank holding the copy] -> owner's snapshot
	rsData  []map[int]snapshot // level-3 data shard per rank (on local device)
	rsPar   map[int][]snapshot // level-3 parity shards per group (on group nodes)
	rsSizes map[int]int        // level-3 padded shard size per group
	rsLens  map[int][]int      // level-3 original data lengths per group member
	rsSums  map[int][]uint32   // level-3 content CRCs per group member (replicated metadata)
	pfs     map[int]snapshot   // level-4: [rank] -> snapshot (off-cluster)

	// injector, when set, corrupts committed snapshots in place (the
	// checksum keeps the pre-corruption value, so the damage is silent
	// until a restore verifies). injected counts applied faults.
	injector Faulter
	injected int

	// pending gathers one collective checkpoint's per-rank bytes until all
	// ranks have contributed. The per-rank buffers are reused across
	// checkpoints (commit copies out of them into slot-owned storage), so
	// the steady-state checkpoint path allocates nothing.
	pending      [][]byte
	pendingHave  []bool
	pendingN     int
	pendingLevel int

	// encode scratch, guarded by mu: padded data shards and the parity
	// slice handed to erasure.(*Code).EncodeInto.
	encShards [][]byte
	encParity [][]byte
}

// reuseSnapshot copies src into the snapshot's existing buffer when it is
// large enough (allocating otherwise) and stamps the new version. Every
// snapshot slot owns its buffer exclusively, which is what makes the
// recycling safe: a slot's buffer is only ever rewritten when that same
// slot is replaced.
func reuseSnapshot(old snapshot, v int, src []byte) snapshot {
	b := old.data
	if cap(b) < len(src) {
		b = make([]byte, len(src))
	} else {
		b = b[:len(src)]
	}
	copy(b, src)
	return snapshot{version: v, data: b, sum: crc32.Checksum(b, crcTable)}
}

// stealSnapshot takes ownership of *src instead of copying it, handing the
// slot's previous buffer back through *src for the donor to recycle. Only
// legal when *src is consumed exactly once by the commit (levels 1 and 4,
// and the last use of a level-2 payload): the donor — the pending scratch —
// truncates its buffer before refilling it, so receiving a stale buffer of
// the right capacity is exactly as good as keeping its own. sum is *src's
// CRC-32C, which a level-2 commit already holds from the payload's local
// copy.
func stealSnapshot(old snapshot, v int, src *[]byte, sum uint32) snapshot {
	b := *src
	*src = old.data
	return snapshot{version: v, data: b, sum: sum}
}

// NewCluster creates a machine of `nodes` nodes (one rank per node).
func NewCluster(nodes int, cfg Config) (*Cluster, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("%w: %d nodes", ErrFTI, nodes)
	}
	if cfg.GroupSize <= 0 || cfg.Parity < 0 {
		return nil, fmt.Errorf("%w: group %d parity %d", ErrFTI, cfg.GroupSize, cfg.Parity)
	}
	if err := cfg.Hierarchy.Validate(); err != nil {
		return nil, err
	}
	code, err := erasure.New(cfg.GroupSize, cfg.Parity)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		nodes:   nodes,
		cfg:     cfg,
		code:    code,
		local:   make([]map[int]snapshot, 1),
		partner: make([]map[int]snapshot, 1),
		rsData:  make([]map[int]snapshot, 1),
		rsPar:   make(map[int][]snapshot),
		rsSizes: make(map[int]int),
		rsLens:  make(map[int][]int),
		rsSums:  make(map[int][]uint32),
		pfs:     make(map[int]snapshot),
	}
	c.local[0] = make(map[int]snapshot)
	c.partner[0] = make(map[int]snapshot)
	c.rsData[0] = make(map[int]snapshot)
	return c, nil
}

// Nodes returns the machine size.
func (c *Cluster) Nodes() int { return c.nodes }

// SetInjector installs (or, with nil, removes) the fault-injection hook
// consulted after every commit. Injection must be configured before the
// run for plans to be reproducible; the hook itself must be deterministic
// in the (level, rank, version) identity (see inject.Plan).
func (c *Cluster) SetInjector(f Faulter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.injector = f
}

// InjectedFaults returns the number of snapshot corruptions applied so far.
func (c *Cluster) InjectedFaults() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.injected
}

// corruptLocked consults the injector for the slot committed at (level,
// identity, version) and applies any fault to the stored bytes — without
// touching the checksum, which is what makes the corruption silent until
// a restore verifies the slot.
func (c *Cluster) corruptLocked(level, identity int, s snapshot) snapshot {
	if c.injector == nil {
		return s
	}
	if f, ok := c.injector.SnapshotFault(level, identity, s.version, len(s.data)); ok {
		s.data = f.Apply(s.data)
		c.injected++
	}
	return s
}

// PartnerOf returns the partner node of rank i (the next node, wrapping).
func (c *Cluster) PartnerOf(i int) int { return (i + 1) % c.nodes }

// groupOf returns the encoding-group index of rank i.
func (c *Cluster) groupOf(i int) int { return i / c.cfg.GroupSize }

// numGroups returns the number of encoding groups.
func (c *Cluster) numGroups() int {
	return (c.nodes + c.cfg.GroupSize - 1) / c.cfg.GroupSize
}

// parityHolder returns the node storing parity shard i of group g: the
// parity of a group lives round-robin on the NEXT group's nodes, so that
// losing up to Parity nodes inside one group erases only that group's data
// shards, never its parity — the property that makes "≤ m losses per
// group" recoverable. (With a single group the parity necessarily falls on
// the same nodes and the guarantee degrades, as on a real machine.)
func (c *Cluster) parityHolder(g, i int) int {
	host := c.groupRanks((g + 1) % c.numGroups())
	return host[i%len(host)]
}

// ParityHolderOf exposes the parity placement to fault injectors: the node
// storing parity shard i of rank r's encoding group. Correlated crash
// patterns use it to kill a rank together with the node backing its
// redundancy.
func (c *Cluster) ParityHolderOf(r, i int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.parityHolder(c.groupOf(r), i)
}

// groupRanks returns the ranks in group g, clipped to the machine size.
func (c *Cluster) groupRanks(g int) []int {
	lo := g * c.cfg.GroupSize
	hi := lo + c.cfg.GroupSize
	if hi > c.nodes {
		hi = c.nodes
	}
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// Agent is the per-rank handle used inside an mpisim run.
type Agent struct {
	c *Cluster
	r *mpisim.Rank
}

// Attach binds a rank to the cluster for the duration of an mpisim run.
func (c *Cluster) Attach(r *mpisim.Rank) *Agent {
	return &Agent{c: c, r: r}
}

// Checkpoint performs a collective checkpoint of each rank's data at the
// given level (1–4) and returns the per-rank duration in virtual seconds.
// All ranks must call it with the same level (SPMD). The payload is
// copied before the call returns; the caller keeps its buffer.
func (a *Agent) Checkpoint(level int, data []byte) (float64, error) {
	_, dur, err := a.checkpoint(level, data, false)
	return dur, err
}

// CheckpointOwned is Checkpoint for callers that hand the payload buffer
// over instead of lending it: data is stored without the defensive copy,
// and a recycled buffer (length 0, capacity from an earlier round — nil
// on the first) is returned for the caller to build the next snapshot
// in. The caller must not touch data after the call.
func (a *Agent) CheckpointOwned(level int, data []byte) ([]byte, float64, error) {
	return a.checkpoint(level, data, true)
}

func (a *Agent) checkpoint(level int, data []byte, owned bool) ([]byte, float64, error) {
	if level < 1 || level > Levels {
		return nil, 0, fmt.Errorf("%w: level %d", ErrFTI, level)
	}
	dur, err := a.c.cfg.Hierarchy.CheckpointTime(level, len(data), a.r.Size(), a.c.cfg.GroupSize)
	if err != nil {
		return nil, 0, err
	}
	a.r.Compute(dur)

	// Stash this rank's bytes; the last arriver commits the version.
	a.c.mu.Lock()
	id := a.r.ID()
	size := a.r.Size()
	if len(a.c.pending) < size {
		a.c.pending = append(a.c.pending, make([][]byte, size-len(a.c.pending))...)
		a.c.pendingHave = append(a.c.pendingHave, make([]bool, size-len(a.c.pendingHave))...)
	}
	if a.c.pendingN == 0 {
		a.c.pendingLevel = level
	}
	if a.c.pendingLevel != level {
		a.c.mu.Unlock()
		return nil, 0, fmt.Errorf("%w: mismatched checkpoint levels (%d vs %d)", ErrFTI, level, a.c.pendingLevel)
	}
	var recycled []byte
	if owned {
		recycled = a.c.pending[id][:0]
		a.c.pending[id] = data
	} else {
		a.c.pending[id] = append(a.c.pending[id][:0], data...)
	}
	if !a.c.pendingHave[id] {
		a.c.pendingHave[id] = true
		a.c.pendingN++
	}
	complete := a.c.pendingN == size
	var commitErr error
	if complete {
		commitErr = a.c.commitLocked(level, a.c.pending[:size])
		a.c.resetPendingLocked()
	}
	a.c.mu.Unlock()
	if commitErr != nil {
		return nil, 0, commitErr
	}

	// FTI synchronizes the application after a checkpoint.
	a.r.Barrier()
	return recycled, dur, nil
}

// resetPendingLocked abandons or completes the in-flight collective: the
// per-rank buffers stay allocated for the next checkpoint round.
func (c *Cluster) resetPendingLocked() {
	for i := range c.pendingHave {
		c.pendingHave[i] = false
	}
	c.pendingN = 0
}

// rankData returns rank r's contribution to the collective (nil for ranks
// beyond the run size).
func rankData(data [][]byte, r int) []byte {
	if r < 0 || r >= len(data) {
		return nil
	}
	return data[r]
}

// commitLocked persists a complete collective checkpoint. data is indexed
// by rank; the buffers belong to the pending scratch, so a snapshot either
// copies into its own (recycled) storage or — at a payload's last use —
// swaps buffers with the scratch (stealSnapshot).
func (c *Cluster) commitLocked(level int, data [][]byte) error {
	c.version++
	v := c.version
	switch level {
	case 1:
		for rank, d := range data {
			c.local[0][rank] = c.corruptLocked(1, rank, stealSnapshot(c.local[0][rank], v, &data[rank], crc32.Checksum(d, crcTable)))
		}
	case 2:
		for rank, d := range data {
			own := reuseSnapshot(c.local[0][rank], v, d)
			c.local[0][rank] = c.corruptLocked(2, rank, own)
			p := c.PartnerOf(rank)
			// The partner copy corrupts independently of the owner's own
			// copy: its injection identity is the owner rank + node count.
			// This is the payload's last use, so it is stolen, not copied,
			// and its bytes are the local copy's, so is its checksum.
			c.partner[0][p] = c.corruptLocked(2, rank+c.nodes, stealSnapshot(c.partner[0][p], v, &data[rank], own.sum))
		}
	case 3:
		for rank, d := range data {
			c.rsData[0][rank] = c.corruptLocked(3, rank, reuseSnapshot(c.rsData[0][rank], v, d))
		}
		// Encode each group with real Reed–Solomon parity, reusing the
		// cluster's padded-shard scratch and each group's previous parity
		// buffers as the EncodeInto destinations.
		groups := (c.nodes + c.cfg.GroupSize - 1) / c.cfg.GroupSize
		if c.encShards == nil {
			c.encShards = make([][]byte, c.cfg.GroupSize)
			c.encParity = make([][]byte, c.cfg.Parity)
		}
		for g := 0; g < groups; g++ {
			ranks := c.groupRanks(g)
			size := 0
			for _, r := range ranks {
				if len(rankData(data, r)) > size {
					size = len(rankData(data, r))
				}
			}
			shards := c.encShards
			for idx := range shards {
				if cap(shards[idx]) < size {
					shards[idx] = make([]byte, size)
				} else {
					shards[idx] = shards[idx][:size]
				}
				var d []byte
				if idx < len(ranks) {
					d = rankData(data, ranks[idx])
				}
				n := copy(shards[idx], d)
				clear(shards[idx][n:]) // zero padding (and clears stale scratch)
			}
			par := c.rsPar[g]
			if len(par) != c.cfg.Parity {
				par = make([]snapshot, c.cfg.Parity)
			}
			parity := c.encParity
			for i := range parity {
				if cap(par[i].data) < size {
					par[i].data = make([]byte, size)
				}
				parity[i] = par[i].data[:size]
			}
			if err := c.code.EncodeInto(shards, parity); err != nil {
				return err
			}
			for i := range par {
				par[i] = snapshot{version: v, data: parity[i], sum: crc32.Checksum(parity[i], crcTable)}
				if c.injector != nil {
					if f, ok := c.injector.ParityFault(g, i, v, len(par[i].data)); ok {
						par[i].data = f.Apply(par[i].data)
						c.injected++
					}
				}
			}
			c.rsPar[g] = par
			c.rsSizes[g] = size
			lens := c.rsLens[g]
			if len(lens) != len(ranks) {
				lens = make([]int, len(ranks))
			}
			sums := c.rsSums[g]
			if len(sums) != len(ranks) {
				sums = make([]uint32, len(ranks))
			}
			// Content CRCs per member live in the group's replicated
			// metadata (small, mirrored like FTI's topology files), so a
			// reconstructed shard can be verified even though the original
			// holder — and its checksum — died with the crash. A member in
			// the run reuses the sum its data shard took above, before any
			// injected corruption; one beyond it contributed no bytes, whose
			// CRC-32C is 0.
			for idx, r := range ranks {
				lens[idx], sums[idx] = 0, 0
				if r < len(data) {
					lens[idx], sums[idx] = len(data[r]), c.rsData[0][r].sum
				}
			}
			c.rsLens[g] = lens
			c.rsSums[g] = sums
		}
	case 4:
		for rank, d := range data {
			c.pfs[rank] = c.corruptLocked(4, rank, stealSnapshot(c.pfs[rank], v, &data[rank], crc32.Checksum(d, crcTable)))
		}
	}
	return nil
}

// Crash marks the given nodes dead and destroys the storage a real crash
// would: their local devices (level-1 files, level-2 copies they held,
// level-3 shards and parity stored on them). Level-4 (PFS) data is
// untouched. Dead nodes are assumed replaced by spares immediately (the
// paper's allocation period A covers the delay), so the node count is
// unchanged and `alive` is reset after accounting for the storage damage.
func (c *Cluster) Crash(nodeSet []int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.resetPendingLocked() // abandon any checkpoint that was mid-flight
	crashed := make(map[int]bool, len(nodeSet))
	for _, n := range nodeSet {
		if n < 0 || n >= c.nodes {
			return fmt.Errorf("%w: crash of invalid node %d", ErrFTI, n)
		}
		crashed[n] = true
	}
	for n := range crashed {
		delete(c.local[0], n)
		delete(c.partner[0], n)
		delete(c.rsData[0], n)
	}
	// Destroy parity shards whose holder nodes crashed.
	for g := 0; g < c.numGroups(); g++ {
		par := c.rsPar[g]
		for i := range par {
			if crashed[c.parityHolder(g, i)] {
				par[i] = snapshot{}
			}
		}
	}
	return nil
}

// RecoveryState reports, per level, whether the latest checkpoint at that
// level is fully restorable and its version.
type RecoveryState struct {
	Level     int
	Version   int
	Available bool
}

// Committed reports whether any checkpoint has ever committed at any
// level. The version counter is monotone — crashes and corruption never
// roll it back — so this distinguishes "nothing to protect yet" from
// "the hierarchy lost everything it held".
func (c *Cluster) Committed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.version > 0
}

// Survey reports recoverability of each level's newest checkpoint.
func (c *Cluster) Survey() []RecoveryState {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]RecoveryState, Levels)
	for lvl := 1; lvl <= Levels; lvl++ {
		v, ok := c.recoverableLocked(lvl)
		out[lvl-1] = RecoveryState{Level: lvl, Version: v, Available: ok}
	}
	return out
}

// BestRecovery returns the cheapest (lowest) level whose newest checkpoint
// is fully restorable, preferring the most recent version on ties at
// different levels. It returns ok=false when nothing survives (restart
// from scratch).
func (c *Cluster) BestRecovery() (level, version int, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	bestV := -1
	bestL := 0
	for lvl := 1; lvl <= Levels; lvl++ {
		if v, avail := c.recoverableLocked(lvl); avail && v > bestV {
			bestV, bestL = v, lvl
		}
	}
	if bestL == 0 {
		return 0, 0, false
	}
	return bestL, bestV, true
}

func (c *Cluster) recoverableLocked(level int) (int, bool) {
	switch level {
	case 1:
		return c.completeVersion(c.local[0])
	case 2:
		// Every rank's data must exist either on its own device or as the
		// partner copy, all at one version.
		v := -1
		for rank := 0; rank < c.nodes; rank++ {
			own, okOwn := c.local[0][rank]
			cp, okCp := c.partner[0][c.PartnerOf(rank)]
			var sv int
			switch {
			case okOwn && okCp:
				sv = maxInt(own.version, cp.version)
			case okOwn:
				sv = own.version
			case okCp:
				sv = cp.version
			default:
				return 0, false
			}
			if v == -1 {
				v = sv
			} else if sv != v {
				return 0, false
			}
		}
		return v, v > 0
	case 3:
		// Each group must have ≥ k shards (data present or parity alive).
		groups := (c.nodes + c.cfg.GroupSize - 1) / c.cfg.GroupSize
		v := -1
		for g := 0; g < groups; g++ {
			ranks := c.groupRanks(g)
			have := 0
			gv := -1
			for _, r := range ranks {
				if s, ok := c.rsData[0][r]; ok {
					have++
					gv = s.version
				}
			}
			for _, p := range c.rsPar[g] {
				if p.data != nil {
					have++
					gv = p.version
				}
			}
			// A short tail group has implicit zero-padding shards that are
			// always available; decoding needs k shards in total.
			if len(ranks) < c.cfg.GroupSize {
				have += c.cfg.GroupSize - len(ranks)
			}
			if have < c.cfg.GroupSize {
				return 0, false
			}
			if v == -1 {
				v = gv
			} else if gv != v {
				return 0, false
			}
		}
		return v, v > 0
	case 4:
		return c.completeVersion(c.pfs)
	}
	return 0, false
}

func (c *Cluster) completeVersion(m map[int]snapshot) (int, bool) {
	if len(m) != c.nodes {
		return 0, false
	}
	v := -1
	for _, s := range m {
		if v == -1 {
			v = s.version
		} else if s.version != v {
			return 0, false
		}
	}
	return v, v > 0
}

// Restore reconstructs every rank's protected bytes from the newest
// checkpoint at the given level, verifying every snapshot read against
// its commit-time checksum. For level 3 it performs real Reed–Solomon
// reconstruction of any missing or corrupt shards. The returned slice is
// indexed by rank. A checksum mismatch that cannot be healed within the
// level returns an error wrapping ErrCorrupt; callers wanting automatic
// fall-through to the next rung use RestoreEscalating.
func (c *Cluster) Restore(level int) ([][]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.restoreLocked(level)
}

func (c *Cluster) restoreLocked(level int) ([][]byte, error) {
	v, ok := c.recoverableLocked(level)
	if !ok {
		return nil, fmt.Errorf("%w: level %d not recoverable", ErrFTI, level)
	}
	out := make([][]byte, c.nodes)
	switch level {
	case 1:
		for rank := 0; rank < c.nodes; rank++ {
			s := c.local[0][rank]
			if !s.ok() {
				return nil, fmt.Errorf("%w: level 1 rank %d (version %d)", ErrCorrupt, rank, s.version)
			}
			out[rank] = append([]byte(nil), s.data...)
		}
	case 2:
		// Within-level escalation: a rank's own copy falls through to the
		// partner copy when missing, stale, or corrupt. Both copies must be
		// at the rung's single complete version v — restoring whatever each
		// rank happens to hold would resume ranks at different iterations,
		// which desynchronizes every subsequent collective.
		for rank := 0; rank < c.nodes; rank++ {
			own, okOwn := c.local[0][rank]
			cp, okCp := c.partner[0][c.PartnerOf(rank)]
			switch {
			case okOwn && own.version == v && own.ok():
				out[rank] = append([]byte(nil), own.data...)
			case okCp && cp.version == v && cp.ok():
				out[rank] = append([]byte(nil), cp.data...)
			default:
				return nil, fmt.Errorf("%w: level 2 rank %d (no intact copy at version %d)", ErrCorrupt, rank, v)
			}
		}
	case 3:
		groups := (c.nodes + c.cfg.GroupSize - 1) / c.cfg.GroupSize
		for g := 0; g < groups; g++ {
			ranks := c.groupRanks(g)
			size := c.rsSizes[g]
			shards := make([][]byte, c.cfg.GroupSize+c.cfg.Parity)
			present := 0
			for idx := 0; idx < c.cfg.GroupSize; idx++ {
				if idx < len(ranks) {
					// A shard that fails its checksum is treated as an
					// erasure: Reed–Solomon can rebuild it as long as the
					// group still holds k intact shards.
					if s, ok := c.rsData[0][ranks[idx]]; ok && s.ok() {
						padded := make([]byte, size)
						copy(padded, s.data)
						shards[idx] = padded
						present++
					}
				} else {
					shards[idx] = make([]byte, size) // implicit zero padding shard
					present++
				}
			}
			for i, p := range c.rsPar[g] {
				if p.data != nil && p.ok() {
					// Present shards are read-only inputs to Reconstruct, so
					// the stored parity can be passed without a copy; only
					// rebuilt (nil) slots get fresh buffers, and Restore
					// returns none of the parity slots.
					shards[c.cfg.GroupSize+i] = p.data
					present++
				}
			}
			if present < c.cfg.GroupSize {
				return nil, fmt.Errorf("%w: level 3 group %d holds %d of %d intact shards",
					ErrCorrupt, g, present, c.cfg.GroupSize)
			}
			if err := c.code.Reconstruct(shards); err != nil {
				return nil, err
			}
			lens := c.rsLens[g]
			sums := c.rsSums[g]
			for idx, r := range ranks {
				data := shards[idx][:lens[idx]]
				if idx < len(sums) && crc32.Checksum(data, crcTable) != sums[idx] {
					return nil, fmt.Errorf("%w: level 3 rank %d failed post-reconstruction verify", ErrCorrupt, r)
				}
				out[r] = data
			}
		}
	case 4:
		for rank := 0; rank < c.nodes; rank++ {
			s := c.pfs[rank]
			if !s.ok() {
				return nil, fmt.Errorf("%w: level 4 rank %d (version %d)", ErrCorrupt, rank, s.version)
			}
			out[rank] = append([]byte(nil), s.data...)
		}
	}
	return out, nil
}

// RecoveryAttempt records one rung tried during an escalating restore.
type RecoveryAttempt struct {
	Level   int    // rung tried (1–4)
	Version int    // checkpoint version the rung held
	OK      bool   // whether the rung restored and verified
	Reason  string // failure detail when !OK
}

// RecoveryOutcome describes how an escalating restore resolved: every
// rung attempted in order, and the rung/version that finally held (Level
// 0 when nothing did).
type RecoveryOutcome struct {
	Attempts []RecoveryAttempt
	Level    int // rung that held; 0 = recovery exhausted
	Version  int
}

// Escalated reports whether at least one rung failed before one held.
func (o RecoveryOutcome) Escalated() bool {
	return len(o.Attempts) > 1 && o.Level != 0
}

// RestoreEscalating walks the recovery hierarchy until a rung restores
// and verifies: candidates are every structurally available level,
// preferred by newest version first and cheapest level on ties — the same
// preference BestRecovery encodes — and a rung that fails verification
// (corrupted or incomplete snapshots) falls through to the next instead
// of trusting the survey. The outcome records each attempt, which is what
// prices detection latency: the caller charges every failed rung's
// recovery cost before the one that held. When all rungs fail the error
// wraps ErrExhausted and names the last rung tried; the caller decides
// whether a from-scratch restart is acceptable.
func (c *Cluster) RestoreEscalating() ([][]byte, RecoveryOutcome, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	type candidate struct{ level, version int }
	var cands []candidate
	for lvl := 1; lvl <= Levels; lvl++ {
		if v, ok := c.recoverableLocked(lvl); ok {
			cands = append(cands, candidate{lvl, v})
		}
	}
	// Newest version first; cheapest (lowest) level on equal versions.
	// Insertion sort: Levels is 4.
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0; j-- {
			a, b := cands[j-1], cands[j]
			if b.version > a.version || (b.version == a.version && b.level < a.level) {
				cands[j-1], cands[j] = b, a
			} else {
				break
			}
		}
	}
	var out RecoveryOutcome
	for _, cand := range cands {
		data, err := c.restoreLocked(cand.level)
		if err == nil {
			out.Attempts = append(out.Attempts, RecoveryAttempt{Level: cand.level, Version: cand.version, OK: true})
			out.Level, out.Version = cand.level, cand.version
			return data, out, nil
		}
		out.Attempts = append(out.Attempts, RecoveryAttempt{
			Level: cand.level, Version: cand.version, Reason: err.Error(),
		})
	}
	last := 0
	if n := len(out.Attempts); n > 0 {
		last = out.Attempts[n-1].Level
	}
	return nil, out, fmt.Errorf("%w: %d rungs tried, last rung %d", ErrExhausted, len(out.Attempts), last)
}

// RecoveryCost returns the per-node virtual-time cost of restoring from
// the given level with perNode bytes.
func (c *Cluster) RecoveryCost(level, perNode int) (float64, error) {
	return c.cfg.Hierarchy.RecoveryTime(level, perNode, c.nodes, c.cfg.GroupSize)
}

// CheckpointCost returns the per-node virtual-time cost of a checkpoint at
// the given level with perNode bytes — what an aborted write wastes pro
// rata when a failure lands inside the checkpoint window.
func (c *Cluster) CheckpointCost(level, perNode int) (float64, error) {
	return c.cfg.Hierarchy.CheckpointTime(level, perNode, c.nodes, c.cfg.GroupSize)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
