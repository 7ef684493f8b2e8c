package fti

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"testing"

	"mlckpt/internal/mpisim"
	"mlckpt/internal/storage"
)

// runCheckpoint executes one SPMD program where every rank checkpoints its
// payload at the given level.
func runCheckpoint(t *testing.T, c *Cluster, level int, payload func(rank int) []byte) float64 {
	t.Helper()
	var dur float64
	_, err := mpisim.Run(c.Nodes(), mpisim.DefaultCostModel(), func(r *mpisim.Rank) {
		a := c.Attach(r)
		d, err := a.Checkpoint(level, payload(r.ID()))
		if err != nil {
			panic(err)
		}
		if r.ID() == 0 {
			dur = d
		}
	})
	if err != nil {
		t.Fatalf("checkpoint run: %v", err)
	}
	return dur
}

func rankPayload(rank int) []byte {
	return []byte(fmt.Sprintf("rank-%03d-state-%d", rank, rank*rank))
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(0, DefaultConfig()); !errors.Is(err, ErrFTI) {
		t.Errorf("0 nodes: %v", err)
	}
	bad := DefaultConfig()
	bad.GroupSize = 0
	if _, err := NewCluster(8, bad); !errors.Is(err, ErrFTI) {
		t.Errorf("0 group: %v", err)
	}
	badH := DefaultConfig()
	badH.Hierarchy.LocalBandwidth = 0
	if _, err := NewCluster(8, badH); !errors.Is(err, storage.ErrStorage) {
		t.Errorf("bad hierarchy: %v", err)
	}
}

func TestLevel1RoundTrip(t *testing.T) {
	c, err := NewCluster(8, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	runCheckpoint(t, c, 1, rankPayload)
	lvl, v, ok := c.BestRecovery()
	if !ok || lvl != 1 || v != 1 {
		t.Fatalf("BestRecovery = (%d, %d, %v)", lvl, v, ok)
	}
	data, err := c.Restore(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if !bytes.Equal(data[i], rankPayload(i)) {
			t.Errorf("rank %d data corrupted", i)
		}
	}
}

func TestLevel1DiesOnAnyCrash(t *testing.T) {
	c, _ := NewCluster(8, DefaultConfig())
	runCheckpoint(t, c, 1, rankPayload)
	if err := c.Crash([]int{3}); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.BestRecovery(); ok {
		t.Error("level-1-only checkpoint survived a node crash")
	}
	if _, err := c.Restore(1); !errors.Is(err, ErrFTI) {
		t.Errorf("Restore after crash: %v", err)
	}
}

func TestLevel2SurvivesNonAdjacentCrashes(t *testing.T) {
	c, _ := NewCluster(8, DefaultConfig())
	runCheckpoint(t, c, 2, rankPayload)
	// Nodes 1 and 4 are not partners of each other (partner(i) = i+1).
	if err := c.Crash([]int{1, 4}); err != nil {
		t.Fatal(err)
	}
	lvl, _, ok := c.BestRecovery()
	if !ok || lvl != 2 {
		t.Fatalf("BestRecovery = (%d, _, %v), want level 2", lvl, ok)
	}
	data, err := c.Restore(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if !bytes.Equal(data[i], rankPayload(i)) {
			t.Errorf("rank %d data corrupted after partner recovery", i)
		}
	}
}

func TestLevel2FailsOnAdjacentCrashes(t *testing.T) {
	c, _ := NewCluster(8, DefaultConfig())
	runCheckpoint(t, c, 2, rankPayload)
	// 2 and 3 are adjacent: node 2's data lived on 2 (dead) and on its
	// partner 3 (dead) -> unrecoverable at level 2.
	if err := c.Crash([]int{2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.BestRecovery(); ok {
		t.Error("level 2 survived adjacent crashes")
	}
}

func TestLevel3SurvivesUpToParityPerGroup(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GroupSize = 4
	cfg.Parity = 2
	c, _ := NewCluster(8, cfg) // groups {0..3}, {4..7}
	runCheckpoint(t, c, 3, rankPayload)
	// Two data losses in group 0 (its parity lives on group 1) and one in
	// group 1 that also destroys one of group 1's parity shards hosted on
	// node 0 — both groups stay within the two-erasure budget.
	if err := c.Crash([]int{0, 2, 6}); err != nil {
		t.Fatal(err)
	}
	lvl, _, ok := c.BestRecovery()
	if !ok || lvl != 3 {
		t.Fatalf("BestRecovery = (%d, _, %v), want level 3", lvl, ok)
	}
	data, err := c.Restore(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if !bytes.Equal(data[i], rankPayload(i)) {
			t.Errorf("rank %d data wrong after RS reconstruction", i)
		}
	}
}

func TestLevel3FailsBeyondParity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GroupSize = 4
	cfg.Parity = 1
	c, _ := NewCluster(8, cfg)
	runCheckpoint(t, c, 3, rankPayload)
	// Two data losses in one group with parity 1: unrecoverable.
	if err := c.Crash([]int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.BestRecovery(); ok {
		t.Error("level 3 survived more losses than parity")
	}
}

func TestLevel4SurvivesEverything(t *testing.T) {
	c, _ := NewCluster(8, DefaultConfig())
	runCheckpoint(t, c, 4, rankPayload)
	if err := c.Crash([]int{0, 1, 2, 3, 4, 5, 6, 7}); err != nil {
		t.Fatal(err)
	}
	lvl, _, ok := c.BestRecovery()
	if !ok || lvl != 4 {
		t.Fatalf("BestRecovery = (%d, _, %v), want level 4", lvl, ok)
	}
	data, err := c.Restore(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if !bytes.Equal(data[i], rankPayload(i)) {
			t.Errorf("rank %d PFS data corrupted", i)
		}
	}
}

func TestBestRecoveryPrefersNewestThenCheapest(t *testing.T) {
	c, _ := NewCluster(8, DefaultConfig())
	runCheckpoint(t, c, 4, rankPayload)                                         // version 1
	runCheckpoint(t, c, 1, func(r int) []byte { return []byte{byte(r), 0xFF} }) // version 2
	lvl, v, ok := c.BestRecovery()
	if !ok || lvl != 1 || v != 2 {
		t.Fatalf("BestRecovery = (%d, %d, %v), want newest level-1 v2", lvl, v, ok)
	}
	// After a crash, the L1 v2 checkpoint dies; fall back to PFS v1.
	if err := c.Crash([]int{6}); err != nil {
		t.Fatal(err)
	}
	lvl, v, ok = c.BestRecovery()
	if !ok || lvl != 4 || v != 1 {
		t.Fatalf("after crash BestRecovery = (%d, %d, %v), want PFS v1", lvl, v, ok)
	}
}

func TestCheckpointDurationsFollowTableIIShape(t *testing.T) {
	// Per-level durations at a fixed payload: levels must be ordered, and
	// the level-4 (PFS) duration must grow with the node count while
	// levels 1-3 stay flat — Table II's shape.
	payload := func(int) []byte { return make([]byte, 1<<16) }
	durAt := func(nodes, level int) float64 {
		c, err := NewCluster(nodes, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return runCheckpoint(t, c, level, payload)
	}
	var d128 [5]float64
	for lvl := 1; lvl <= 4; lvl++ {
		d128[lvl] = durAt(128, lvl)
	}
	if !(d128[1] < d128[2] && d128[2] < d128[3] && d128[3] < d128[4]) {
		t.Errorf("level durations not increasing: %v", d128[1:])
	}
	for lvl := 1; lvl <= 3; lvl++ {
		if durAt(512, lvl) != d128[lvl] {
			t.Errorf("level %d duration varies with scale", lvl)
		}
	}
	if durAt(512, 4) <= d128[4] {
		t.Error("PFS duration did not grow with scale")
	}
}

func TestCheckpointInvalidLevel(t *testing.T) {
	c, _ := NewCluster(2, DefaultConfig())
	_, err := mpisim.Run(2, mpisim.DefaultCostModel(), func(r *mpisim.Rank) {
		a := c.Attach(r)
		if _, err := a.Checkpoint(0, nil); err == nil {
			panic("level 0 accepted")
		}
		if _, err := a.Checkpoint(5, nil); err == nil {
			panic("level 5 accepted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCrashInvalidNode(t *testing.T) {
	c, _ := NewCluster(4, DefaultConfig())
	if err := c.Crash([]int{9}); !errors.Is(err, ErrFTI) {
		t.Errorf("invalid node: %v", err)
	}
}

func TestSurvey(t *testing.T) {
	c, _ := NewCluster(8, DefaultConfig())
	runCheckpoint(t, c, 2, rankPayload)
	states := c.Survey()
	if len(states) != 4 {
		t.Fatalf("survey length %d", len(states))
	}
	// A level-2 checkpoint also populates the local level-1 files.
	if !states[0].Available || !states[1].Available {
		t.Errorf("levels 1-2 should be available: %+v", states)
	}
	if states[2].Available || states[3].Available {
		t.Errorf("levels 3-4 should be empty: %+v", states)
	}
}

func TestRecoveryCost(t *testing.T) {
	c, _ := NewCluster(64, DefaultConfig())
	prev := 0.0
	for lvl := 1; lvl <= 4; lvl++ {
		cost, err := c.RecoveryCost(lvl, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if cost <= 0 {
			t.Errorf("level %d recovery cost %g", lvl, cost)
		}
		_ = prev
		prev = cost
	}
	if _, err := c.RecoveryCost(7, 1); err == nil {
		t.Error("invalid level accepted")
	}
}

func TestUnevenPayloadSizesThroughRS(t *testing.T) {
	// Ranks with different state sizes must round-trip through the padded
	// RS encoding.
	cfg := DefaultConfig()
	cfg.GroupSize = 4
	cfg.Parity = 2
	c, _ := NewCluster(8, cfg)
	payload := func(r int) []byte {
		out := make([]byte, 100+r*37)
		for i := range out {
			out[i] = byte(r ^ i)
		}
		return out
	}
	runCheckpoint(t, c, 3, payload)
	if err := c.Crash([]int{0, 7}); err != nil {
		t.Fatal(err)
	}
	data, err := c.Restore(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if !bytes.Equal(data[i], payload(i)) {
			t.Errorf("rank %d: got %d bytes, want %d", i, len(data[i]), len(payload(i)))
		}
	}
}

func TestShortTailGroup(t *testing.T) {
	// 10 nodes with group size 4: the last group has only 2 members and
	// relies on implicit zero padding shards.
	cfg := DefaultConfig()
	cfg.GroupSize = 4
	cfg.Parity = 2
	c, _ := NewCluster(10, cfg)
	runCheckpoint(t, c, 3, rankPayload)
	if err := c.Crash([]int{8, 9}); err != nil {
		t.Fatal(err)
	}
	lvl, _, ok := c.BestRecovery()
	if !ok || lvl != 3 {
		t.Fatalf("tail group not recoverable: (%d, %v)", lvl, ok)
	}
	data, err := c.Restore(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if !bytes.Equal(data[i], rankPayload(i)) {
			t.Errorf("rank %d corrupted", i)
		}
	}
}

// TestCommitChecksumsMatchPayloads pins every stored CRC-32C to the CRC of
// the payload it was committed from, at each level, over two rounds of
// different payload sizes so recycled and swapped buffers are covered. A
// level-2 partner copy and a level-3 member's replicated sum reuse the sum
// computed for the rank's own copy instead of checksumming the bytes again.
func TestCommitChecksumsMatchPayloads(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GroupSize = 4
	cfg.Parity = 2
	c, err := NewCluster(10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		payload := func(r int) []byte {
			out := make([]byte, 50+13*r+70*round)
			for i := range out {
				out[i] = byte(7*r ^ i ^ round)
			}
			return out
		}
		want := func(r int) uint32 { return crc32.Checksum(payload(r), crcTable) }
		check := func(level int, what string, r int, got uint32) {
			t.Helper()
			if got != want(r) {
				t.Errorf("round %d level %d: %s of rank %d has sum %08x, payload %08x", round, level, what, r, got, want(r))
			}
		}
		for level := 1; level <= 4; level++ {
			runCheckpoint(t, c, level, payload)
			for r := 0; r < c.Nodes(); r++ {
				switch level {
				case 1:
					check(level, "local copy", r, c.local[0][r].sum)
				case 2:
					check(level, "local copy", r, c.local[0][r].sum)
					check(level, "partner copy", r, c.partner[0][c.PartnerOf(r)].sum)
				case 3:
					check(level, "data shard", r, c.rsData[0][r].sum)
					check(level, "group metadata", r, c.rsSums[c.groupOf(r)][r%cfg.GroupSize])
				case 4:
					check(level, "PFS copy", r, c.pfs[r].sum)
				}
			}
		}
	}
}
