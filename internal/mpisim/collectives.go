package mpisim

import "fmt"

// Reduce reduces the per-rank vectors elementwise with op; only the root
// receives the result (others get nil). Cost: one tree phase (half an
// Allreduce).
func (r *Rank) Reduce(root int, op ReduceOp, data []float64) []float64 {
	if root < 0 || root >= r.rt.size() {
		panic(fmt.Sprintf("mpisim: Reduce with invalid root %d", root))
	}
	// No defensive copy of data, for the reason Allreduce gives: every
	// rank stays blocked until the last arriver has run the reduction.
	cost := r.rt.cost().treeCost(r.rt.size(), 8*len(data))
	r.contrib = data
	out := r.collective(collReduce, &r.contrib, func(entries []float64, payloads []any) (any, float64) {
		return op.reduce("Reduce", payloads), maxOf(entries) + cost
	})
	r.contrib = nil
	if r.id != root {
		return nil
	}
	return out.([]float64)
}

// Scatter distributes root's per-rank chunks: rank i receives chunks[i].
// Non-root ranks pass nil. Cost: one tree phase over the total volume.
func (r *Rank) Scatter(root int, chunks [][]byte) []byte {
	if root < 0 || root >= r.rt.size() {
		panic(fmt.Sprintf("mpisim: Scatter with invalid root %d", root))
	}
	var payload any
	if r.id == root {
		if len(chunks) != r.rt.size() {
			panic(fmt.Sprintf("mpisim: Scatter with %d chunks for %d ranks", len(chunks), r.rt.size()))
		}
		cp := make([][]byte, len(chunks))
		for i, c := range chunks {
			cp[i] = append([]byte(nil), c...)
		}
		payload = cp
	}
	// The cost must come from the gathered payloads, not from any one
	// caller's arguments: the closure runs on whichever rank arrives last,
	// and per-rank argument sizes may differ. Virtual time has to be a
	// pure function of the communicated data, never of rank execution
	// order.
	cm, size := r.rt.cost(), r.rt.size()
	out := r.collective(collScatter, payload, func(entries []float64, payloads []any) (any, float64) {
		total := 0
		for _, c := range payloads[root].([][]byte) {
			total += len(c)
		}
		return payloads[root], maxOf(entries) + cm.treeCost(size, total)
	})
	all := out.([][]byte)
	return all[r.id]
}

// SendRecv performs a combined blocking exchange with two (possibly
// different) partners, deadlock-free: the send is injected eagerly before
// the receive blocks.
func (r *Rank) SendRecv(dst, sendTag int, data []byte, src, recvTag int) []byte {
	r.Send(dst, sendTag, data)
	return r.Recv(src, recvTag)
}
