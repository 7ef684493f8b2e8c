package lint

import "testing"

// TestMarkerParsing pins the //mlckpt: marker grammar: unknown markers and
// a reasonless baton are lintdirective findings, valid markers are silent.
func TestMarkerParsing(t *testing.T) {
	src := `package fixture

//mlckpt:hotpath
func a() {}

//mlckpt:baton justified reason here
func b(ch chan int) { <-ch }

//mlckpt:baton
func c() {}

//mlckpt:frobnicate
func d() {}
`
	u := fixtureUnit(t, "internal/mpisim", src, false)
	checkLines(t, u, BatonBlockAnalyzer(), map[int][]string{
		9:  {"lintdirective"},
		12: {"lintdirective"},
	})
}

// TestDetachedMarkers: a marker outside a func declaration's doc comment
// gates nothing, so it is a lintdirective finding. The first case is a
// declaration inserted between a hot function's doc comment and its func,
// which takes the marker over: allocgate would gate one function fewer and
// pass. A detached fiber marker would drop a batonblock root the same way.
func TestDetachedMarkers(t *testing.T) {
	src := `package fixture

// Next returns the earliest pending failure.
//
//mlckpt:hotpath
var sinkNext float64

func Next(from float64) float64 { return from }

// Step is one rank's program.
//mlckpt:fiber
const steps = 3

func Step() {}

//mlckpt:fiber

func Floating() {}

func Body() {
	//mlckpt:hotpath
	_ = steps
}

// Attached markers stay silent.
//
//mlckpt:hotpath
func Hot() {}

//mlckpt:fiber
func Fiber() {}
`
	u := fixtureUnit(t, "internal/failure", src, false)
	checkLines(t, u, BatonBlockAnalyzer(), map[int][]string{
		5:  {"lintdirective"},
		11: {"lintdirective"},
		16: {"lintdirective"},
		21: {"lintdirective"},
	})
}
