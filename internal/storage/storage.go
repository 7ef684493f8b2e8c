// Package storage models the timing of the storage hierarchy an FTI-style
// multilevel checkpoint toolkit writes to: node-local devices (level 1),
// partner-node copies over the interconnect (level 2), encoded groups
// (level 3), and a shared parallel file system (level 4).
//
// The PFS model is the load-bearing piece: its aggregate bandwidth is
// shared by all concurrent writers and every file carries a metadata cost
// that grows with the client count — which is what makes the measured
// level-4 checkpoint overhead climb with the execution scale in Table II
// while levels 1–3 stay flat.
package storage

import (
	"errors"
	"fmt"
)

// ErrStorage is returned for invalid operations or parameters.
var ErrStorage = errors.New("storage: invalid operation")

// Hierarchy bundles the device parameters. All bandwidths in bytes/second,
// latencies in seconds.
type Hierarchy struct {
	// Local device (SSD / NVDIMM) per node.
	LocalBandwidth float64
	LocalLatency   float64
	// Interconnect used for partner copies and RS exchanges.
	NetBandwidth float64
	NetLatency   float64
	// RS encoding throughput per node (XOR/GF multiply streams).
	EncodeBandwidth float64
	// Shared parallel file system.
	PFSBandwidth   float64 // aggregate across all clients
	PFSMetaPerFile float64 // per-file metadata/open cost, seconds
	PFSMetaScaling float64 // extra metadata serialization cost per client, seconds
}

// DefaultHierarchy approximates the paper-era Fusion cluster: ~200 MB/s
// local disks, ~3 GB/s links, ~4 GB/s aggregate GPFS.
func DefaultHierarchy() Hierarchy {
	return Hierarchy{
		LocalBandwidth:  200e6,
		LocalLatency:    1e-3,
		NetBandwidth:    3e9,
		NetLatency:      2e-6,
		EncodeBandwidth: 1e9,
		PFSBandwidth:    4e9,
		PFSMetaPerFile:  5e-3,
		PFSMetaScaling:  2e-5,
	}
}

// Validate checks the parameters.
func (h Hierarchy) Validate() error {
	if h.LocalBandwidth <= 0 || h.NetBandwidth <= 0 || h.EncodeBandwidth <= 0 || h.PFSBandwidth <= 0 {
		return fmt.Errorf("%w: non-positive bandwidth", ErrStorage)
	}
	if h.LocalLatency < 0 || h.NetLatency < 0 || h.PFSMetaPerFile < 0 || h.PFSMetaScaling < 0 {
		return fmt.Errorf("%w: negative latency", ErrStorage)
	}
	return nil
}

// LocalWrite returns the time for one node to write bytes to its local
// device.
func (h Hierarchy) LocalWrite(bytes int) float64 {
	return h.LocalLatency + float64(bytes)/h.LocalBandwidth
}

// LocalRead returns the time for one node to read bytes from its local
// device (modelled symmetric to writes).
func (h Hierarchy) LocalRead(bytes int) float64 {
	return h.LocalWrite(bytes)
}

// PartnerCopy returns the time for a node to ship bytes to its partner and
// for the partner to persist them locally; both happen on the critical
// path of a level-2 checkpoint (after the local write of the node's own
// data).
func (h Hierarchy) PartnerCopy(bytes int) float64 {
	return h.NetLatency + float64(bytes)/h.NetBandwidth + h.LocalWrite(bytes)
}

// Encode returns the time for a node to RS-encode bytes (level 3): the
// group exchange of data plus the GF arithmetic plus the local write of
// the parity shard.
func (h Hierarchy) Encode(bytes, groupSize int) float64 {
	if groupSize < 1 {
		groupSize = 1
	}
	exchange := float64(groupSize-1) * (h.NetLatency + float64(bytes)/h.NetBandwidth)
	return exchange + float64(bytes)/h.EncodeBandwidth + h.LocalWrite(bytes)
}

// PFSWrite returns the per-client time for `clients` nodes concurrently
// writing `bytesPerClient` each to the shared file system: every client
// pays the metadata cost (which grows with the client count as the
// metadata server serializes opens) and the aggregate bandwidth is split
// across clients.
func (h Hierarchy) PFSWrite(bytesPerClient, clients int) float64 {
	if clients < 1 {
		clients = 1
	}
	meta := h.PFSMetaPerFile + h.PFSMetaScaling*float64(clients)
	total := float64(bytesPerClient) * float64(clients)
	return meta + total/h.PFSBandwidth
}

// PFSRead returns the per-client recovery read time (modelled symmetric).
func (h Hierarchy) PFSRead(bytesPerClient, clients int) float64 {
	return h.PFSWrite(bytesPerClient, clients)
}

// CheckpointTime returns the per-node duration of a checkpoint at the given
// level (1-based), for perNode bytes on each of `nodes` nodes with RS group
// size `groupSize`. It reproduces the Table II structure: levels 1–3
// roughly independent of the node count, level 4 growing with it.
func (h Hierarchy) CheckpointTime(level int, perNode, nodes, groupSize int) (float64, error) {
	switch level {
	case 1:
		return h.LocalWrite(perNode), nil
	case 2:
		return h.LocalWrite(perNode) + h.PartnerCopy(perNode), nil
	case 3:
		return h.LocalWrite(perNode) + h.Encode(perNode, groupSize), nil
	case 4:
		return h.PFSWrite(perNode, nodes), nil
	default:
		return 0, fmt.Errorf("%w: level %d", ErrStorage, level)
	}
}

// RetryPolicy bounds retry-with-deterministic-backoff on transient PFS
// faults. Delays are fixed by the policy (exponential, not jittered), so
// the virtual-time cost of a faulty operation is a pure function of the
// fault plan — retries show up in wall-clock results identically at any
// worker count.
type RetryPolicy struct {
	MaxRetries int     // retries after the first attempt; 0 disables retrying
	Base       float64 // delay before the first retry, seconds
	Factor     float64 // multiplier applied to each subsequent delay
}

// DefaultRetryPolicy retries three times with 0.5s/1s/2s backoff —
// enough to ride out the transient PFS hiccups the fault plans inject
// without hiding a persistently failing file system.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxRetries: 3, Base: 0.5, Factor: 2}
}

// Backoff returns the delay in seconds before retry `retry` (0-based).
func (p RetryPolicy) Backoff(retry int) float64 {
	if retry < 0 {
		return 0
	}
	d := p.Base
	factor := p.Factor
	if factor == 0 {
		factor = 1
	}
	for i := 0; i < retry; i++ {
		d *= factor
	}
	return d
}

// Retry prices a faulty operation on the virtual clock: the operation
// costs attemptCost seconds per try, and shouldFail(attempt) decides
// (deterministically, from the fault plan) whether try `attempt` fails
// transiently. It returns the total elapsed virtual time (every attempt's
// cost plus the backoff delays between them), the number of attempts
// made, and whether the operation ultimately succeeded within the retry
// budget. The elapsed time of a failed operation still counts — the
// caller charged the wall clock for work the PFS threw away.
func (p RetryPolicy) Retry(attemptCost float64, shouldFail func(attempt int) bool) (elapsed float64, attempts int, ok bool) {
	for attempt := 0; ; attempt++ {
		attempts++
		elapsed += attemptCost
		if !shouldFail(attempt) {
			return elapsed, attempts, true
		}
		if attempt >= p.MaxRetries {
			return elapsed, attempts, false
		}
		elapsed += p.Backoff(attempt)
	}
}

// RecoveryTime returns the per-node duration of restoring a checkpoint of
// the given level.
func (h Hierarchy) RecoveryTime(level int, perNode, nodes, groupSize int) (float64, error) {
	switch level {
	case 1:
		return h.LocalRead(perNode), nil
	case 2:
		// Fetch the copy back from the partner.
		return h.NetLatency + float64(perNode)/h.NetBandwidth + h.LocalRead(perNode), nil
	case 3:
		// Rebuild lost shards: group exchange + decode.
		return h.Encode(perNode, groupSize), nil
	case 4:
		return h.PFSRead(perNode, nodes), nil
	default:
		return 0, fmt.Errorf("%w: level %d", ErrStorage, level)
	}
}
