package enc

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

func randRow(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64() * 100
	}
	return out
}

// TestCodecMatchesGeneric differentially tests the dispatched bulk codec
// against the spelled-out little-endian reference.
func TestCodecMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, n := range []int{0, 1, 2, 7, 8, 64, 1000} {
		src := randRow(rng, n)
		src = append(src[:0:0], src...)
		if n > 2 {
			src[1] = math.NaN()
			src[2] = math.Inf(-1)
		}
		want := make([]byte, 8*n+3) // over-long: codec must only touch the prefix
		got := make([]byte, 8*n+3)
		PutFloat64sGeneric(want, src)
		PutFloat64s(got, src)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: byte %d = %#x, want %#x", n, i, got[i], want[i])
			}
		}
		back := make([]float64, n)
		GetFloat64s(back, got)
		for i := range src {
			if math.Float64bits(back[i]) != math.Float64bits(src[i]) {
				t.Fatalf("n=%d: roundtrip [%d] = %v, want %v", n, i, back[i], src[i])
			}
		}
	}
}

// TestCodecWireFormat pins the wire format itself (little-endian IEEE-754
// words) against encoding/binary, independent of the generic codec.
func TestCodecWireFormat(t *testing.T) {
	src := []float64{0, -0.0, 1.5, math.Pi, math.Inf(1)}
	buf := make([]byte, 8*len(src))
	PutFloat64s(buf, src)
	for i, v := range src {
		if got := binary.LittleEndian.Uint64(buf[8*i:]); got != math.Float64bits(v) {
			t.Fatalf("word %d = %#x, want %#x", i, got, math.Float64bits(v))
		}
	}
}

// TestCodecZeroAlloc pins the codecs' zero-allocation contract, for the
// build's codecs and the portable ones.
func TestCodecZeroAlloc(t *testing.T) {
	src := randRow(rand.New(rand.NewSource(11)), 512)
	buf := make([]byte, 8*len(src))
	dst := make([]float64, len(src))
	for _, c := range []struct {
		name string
		put  func([]byte, []float64)
		get  func([]float64, []byte)
	}{
		{"build", PutFloat64s, GetFloat64s},
		{"generic", PutFloat64sGeneric, GetFloat64sGeneric},
	} {
		if avg := testing.AllocsPerRun(50, func() {
			c.put(buf, src)
			c.get(dst, buf)
		}); avg != 0 {
			t.Errorf("%s codec allocates %.1f times per call pair", c.name, avg)
		}
	}
}
