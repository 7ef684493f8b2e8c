package erasure

import (
	"errors"
	"fmt"
)

// Errors reported by the codec.
var (
	ErrShape       = errors.New("erasure: invalid code shape")
	ErrTooManyLost = errors.New("erasure: more shards lost than parity can recover")
	ErrShardSize   = errors.New("erasure: inconsistent shard sizes")
	ErrReconstruct = errors.New("erasure: reconstruction failed")
)

// Code is a Reed–Solomon erasure code with K data shards and M parity
// shards over GF(2⁸).
type Code struct {
	K, M    int
	matrix  [][]byte     // M×K Cauchy encoding matrix
	tables  [][]mulTable // split-nibble tables per matrix cell, built once
	workers int          // striping fan-out; 0 = GOMAXPROCS at encode time (tests pin others)
}

// New creates a code with k data and m parity shards. k+m must not exceed
// 256 (the field size limits distinct Cauchy points).
func New(k, m int) (*Code, error) {
	if k <= 0 || m < 0 || k+m > 256 {
		return nil, fmt.Errorf("%w: k=%d, m=%d", ErrShape, k, m)
	}
	c := &Code{K: k, M: m}
	// Cauchy matrix: rows indexed by x_i = k+i, columns by y_j = j, with
	// entry 1/(x_i ⊕ y_j). All points distinct, so every square submatrix
	// of the stacked [I; C] generator is invertible.
	c.matrix = make([][]byte, m)
	c.tables = make([][]mulTable, m)
	for i := 0; i < m; i++ {
		row := make([]byte, k)
		for j := 0; j < k; j++ {
			row[j] = Inv(byte(k+i) ^ byte(j))
		}
		c.matrix[i] = row
		c.tables[i] = makeMulTables(row)
	}
	return c, nil
}

// shardSize validates that every non-nil shard has one common length and
// returns it (-1 when all shards are nil).
func shardSize(shards [][]byte) (int, error) {
	size := -1
	for _, s := range shards {
		if s == nil {
			continue
		}
		if size == -1 {
			size = len(s)
		} else if len(s) != size {
			return 0, ErrShardSize
		}
	}
	return size, nil
}

// Encode computes the m parity shards for the given k data shards. All data
// shards must be the same length. The returned parity shards have that
// length too (sharing one backing allocation; use EncodeInto to reuse
// caller-owned buffers instead).
func (c *Code) Encode(data [][]byte) ([][]byte, error) {
	if len(data) != c.K {
		return nil, fmt.Errorf("%w: %d data shards, want %d", ErrShape, len(data), c.K)
	}
	size, err := shardSize(data)
	if err != nil {
		return nil, err
	}
	if size < 0 {
		size = 0
	}
	parity := make([][]byte, c.M)
	backing := make([]byte, c.M*size)
	for i := range parity {
		parity[i] = backing[i*size : (i+1)*size : (i+1)*size]
	}
	if err := c.EncodeInto(data, parity); err != nil {
		return nil, err
	}
	return parity, nil
}

// EncodeInto computes the parity of data into the caller-owned parity
// shards, overwriting their contents: no allocations on the steady-state
// path. parity must hold exactly M shards of the common data shard length.
//
//mlckpt:hotpath
func (c *Code) EncodeInto(data, parity [][]byte) error {
	if len(data) != c.K || len(parity) != c.M {
		return fmt.Errorf("%w: %d data + %d parity shards, want %d + %d",
			ErrShape, len(data), len(parity), c.K, c.M)
	}
	size, err := shardSize(data)
	if err != nil {
		return err
	}
	if size < 0 {
		size = 0
	}
	for _, d := range data {
		if len(d) != size {
			return ErrShardSize // nil (length-0) shards in a non-empty encode
		}
	}
	for _, p := range parity {
		if len(p) != size {
			return ErrShardSize
		}
	}
	c.mulRows(c.tables, data, parity, size)
	return nil
}

// Arena is a reusable pool of shard buffers for ReconstructInto: rebuilt
// shards are carved from its buffers instead of fresh allocations, so a
// caller that reconstructs repeatedly (e.g. the FTI cluster restoring
// group after group) reaches a zero-allocation steady state. The zero
// value is ready to use; Reset recycles every buffer for the next call.
type Arena struct {
	bufs []([]byte)
	used int
}

// Reset makes all of the arena's buffers available again. The shards
// returned by earlier ReconstructInto calls alias them, so only call Reset
// once those results are no longer needed.
func (a *Arena) Reset() { a.used = 0 }

// take returns a zeroed-length buffer of the given size, reusing pooled
// capacity when available.
func (a *Arena) take(size int) []byte {
	if a.used < len(a.bufs) && cap(a.bufs[a.used]) >= size {
		b := a.bufs[a.used][:size]
		a.used++
		return b
	}
	b := make([]byte, size)
	if a.used < len(a.bufs) {
		a.bufs[a.used] = b
	} else {
		a.bufs = append(a.bufs, b)
	}
	a.used++
	return b
}

// Reconstruct rebuilds missing shards in place. shards must have length
// K+M: the first K entries are data shards, the rest parity. A nil entry
// marks a lost shard. On success every entry is non-nil and the data
// shards contain the original content.
func (c *Code) Reconstruct(shards [][]byte) error {
	return c.ReconstructInto(shards, nil)
}

// ReconstructInto is Reconstruct with caller-owned storage: buffers for
// the rebuilt shards come from arena (nil behaves like Reconstruct and
// allocates fresh ones). The rebuilt entries of shards alias the arena's
// buffers until its next Reset.
//
//mlckpt:hotpath
func (c *Code) ReconstructInto(shards [][]byte, arena *Arena) error {
	if len(shards) != c.K+c.M {
		return fmt.Errorf("%w: %d shards, want %d", ErrShape, len(shards), c.K+c.M)
	}
	size, err := shardSize(shards)
	if err != nil {
		return err
	}
	present := 0
	for _, s := range shards {
		if s != nil {
			present++
		}
	}
	if present == c.K+c.M {
		return nil // nothing to do
	}
	if present < c.K {
		return fmt.Errorf("%w: only %d of %d shards present", ErrTooManyLost, present, c.K)
	}
	if arena == nil {
		arena = &Arena{}
	}

	// Build the system: pick K available rows of the generator [I; C] and
	// invert the corresponding K×K submatrix to recover the data shards.
	rows := make([][]byte, 0, c.K)
	rhs := make([][]byte, 0, c.K)
	for i := 0; i < c.K+c.M && len(rows) < c.K; i++ {
		if shards[i] == nil {
			continue
		}
		// Decode-matrix setup, O(K²) bytes once per call; the generator
		// row is copied because invertMatrix mutates it.
		var row []byte
		if i < c.K {
			row = make([]byte, c.K)
			row[i] = 1
		} else {
			row = append([]byte(nil), c.matrix[i-c.K]...)
		}
		rows = append(rows, row)
		rhs = append(rhs, shards[i])
	}

	inv, err := invertMatrix(rows)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrReconstruct, err)
	}

	// Recover missing data shards: data[j] = Σ inv[j][r]·rhs[r], all rows
	// in one striped pass over the rhs shards.
	var tabs [][]mulTable
	var outs [][]byte
	var slots []int
	for j := 0; j < c.K; j++ {
		if shards[j] != nil {
			continue
		}
		tabs = append(tabs, makeMulTables(inv[j]))
		outs = append(outs, arena.take(size))
		slots = append(slots, j)
	}
	c.mulRows(tabs, rhs, outs, size)
	for i, j := range slots {
		shards[j] = outs[i]
	}
	// Recompute missing parity shards from the (now complete) data.
	tabs, outs, slots = tabs[:0], outs[:0], slots[:0]
	for i := 0; i < c.M; i++ {
		if shards[c.K+i] != nil {
			continue
		}
		tabs = append(tabs, c.tables[i])
		outs = append(outs, arena.take(size))
		slots = append(slots, c.K+i)
	}
	c.mulRows(tabs, shards[:c.K], outs, size)
	for i, j := range slots {
		shards[j] = outs[i]
	}
	return nil
}

// Verify checks that the parity shards are consistent with the data shards.
func (c *Code) Verify(shards [][]byte) (bool, error) {
	if len(shards) != c.K+c.M {
		return false, fmt.Errorf("%w: %d shards, want %d", ErrShape, len(shards), c.K+c.M)
	}
	for _, s := range shards {
		if s == nil {
			return false, fmt.Errorf("%w: nil shard", ErrShardSize)
		}
	}
	parity, err := c.Encode(shards[:c.K])
	if err != nil {
		return false, err
	}
	for i := range parity {
		got := shards[c.K+i]
		for j := range parity[i] {
			if parity[i][j] != got[j] {
				return false, nil
			}
		}
	}
	return true, nil
}

// invertMatrix inverts a square matrix over GF(2⁸) by Gauss–Jordan
// elimination.
func invertMatrix(m [][]byte) ([][]byte, error) {
	n := len(m)
	// Augment with identity.
	work := make([][]byte, n)
	for i := range work {
		if len(m[i]) != n {
			return nil, fmt.Errorf("row %d has %d entries, want %d", i, len(m[i]), n)
		}
		work[i] = make([]byte, 2*n)
		copy(work[i], m[i])
		work[i][n+i] = 1
	}
	for col := 0; col < n; col++ {
		pivot := -1
		for r := col; r < n; r++ {
			if work[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, errors.New("singular matrix")
		}
		work[col], work[pivot] = work[pivot], work[col]
		// Normalize pivot row.
		invP := Inv(work[col][col])
		for j := 0; j < 2*n; j++ {
			work[col][j] = Mul(work[col][j], invP)
		}
		// Eliminate the column elsewhere.
		for r := 0; r < n; r++ {
			if r == col || work[r][col] == 0 {
				continue
			}
			f := work[r][col]
			for j := 0; j < 2*n; j++ {
				work[r][j] ^= Mul(f, work[col][j])
			}
		}
	}
	inv := make([][]byte, n)
	for i := range inv {
		inv[i] = work[i][n:]
	}
	return inv, nil
}
