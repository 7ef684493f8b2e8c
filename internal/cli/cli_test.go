package cli

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"mlckpt"
	"mlckpt/internal/overhead"
)

// tableSpecJSON is a "table" speedup spec without baselineScale: N_b must
// default to the peak sample's scale (1e4), not to the ignored idealScale.
const tableSpecJSON = `{"teCoreDays":3e6,` +
	`"speedup":{"kind":"table","points":[[1,1],[1e3,500],[1e4,2000],[1e5,1500]]},` +
	`"levels":[{"checkpointConst":0.866},{"checkpointConst":2.586},` +
	`{"checkpointConst":3.886},{"checkpointConst":5.5,"checkpointSlope":0.0212}],` +
	`"allocSeconds":60,"failuresPerDay":[16,12,8,4]}`

func writeFile(t testing.TB, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func writeSpec(t *testing.T, spec mlckpt.Spec) string {
	t.Helper()
	blob, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return writeFile(t, blob)
}

func TestLoadSpecRoundTrip(t *testing.T) {
	want := mlckpt.PaperSpec(3e6, []float64{16, 12, 8, 4})
	got, err := LoadSpec(writeSpec(t, want))
	if err != nil {
		t.Fatalf("LoadSpec: %v", err)
	}
	if got.TeCoreDays != want.TeCoreDays || len(got.Levels) != len(want.Levels) {
		t.Errorf("round trip changed the spec: %+v", got)
	}
}

func TestLoadSpecMissingFile(t *testing.T) {
	if _, err := LoadSpec(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestLoadSpecBadJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSpec(path); !errors.Is(err, ErrCLI) {
		t.Errorf("err = %v", err)
	}
}

func TestLoadSpecInvalidProblem(t *testing.T) {
	for _, mut := range []func(*mlckpt.Spec){
		func(s *mlckpt.Spec) { s.TeCoreDays = -1 },
		func(s *mlckpt.Spec) { s.TeCoreDays = 1e304 },
		func(s *mlckpt.Spec) { s.Levels[3].SaturationCap = -5 },
		func(s *mlckpt.Spec) { s.Levels[1].CheckpointConst = -1 },
		func(s *mlckpt.Spec) { s.Levels[3].CheckpointSlope = -0.01 },
		func(s *mlckpt.Spec) { s.AllocSeconds = -1 },
		func(s *mlckpt.Spec) { s.BaselineScale = -1 },
	} {
		bad := mlckpt.PaperSpec(3e6, []float64{16, 12, 8, 4})
		mut(&bad)
		_, err := LoadSpec(writeSpec(t, bad))
		if !errors.Is(err, ErrCLI) || !errors.Is(err, mlckpt.ErrSpec) {
			t.Errorf("err = %v, want ErrCLI wrapping ErrSpec", err)
		}
	}
}

func TestLoadSpecTableWithoutBaseline(t *testing.T) {
	spec, err := LoadSpec(writeFile(t, []byte(tableSpecJSON)))
	if err != nil {
		t.Fatalf("LoadSpec: %v", err)
	}
	plan, err := mlckpt.Optimize(spec, mlckpt.MLOptScale)
	if err != nil {
		t.Fatalf("loaded table spec does not optimize: %v", err)
	}
	if !plan.Converged || plan.Scale <= 0 || plan.Scale > 1e4 {
		t.Errorf("plan = %+v, want a converged scale in (0, 1e4]", plan)
	}
}

// FuzzLoadSpec feeds arbitrary bytes to LoadSpec through a file. Every
// input either fails with an error wrapping ErrCLI, or loads a spec whose
// model parameters carry a finite, positive T_e and baseline scale, a
// finite, non-negative allocation period, failure rates and cost
// constants, slopes and caps, and whose JSON encoding loads back to the
// same encoding.
func FuzzLoadSpec(f *testing.F) {
	paper := mlckpt.PaperSpec(3e6, []float64{16, 12, 8, 4})
	for _, mut := range []func(*mlckpt.Spec){
		func(*mlckpt.Spec) {},
		func(s *mlckpt.Spec) { s.TeCoreDays = -1 },
		func(s *mlckpt.Spec) { s.FailuresPerDay = []float64{16, -4, 8, 4} },
		func(s *mlckpt.Spec) {
			s.Levels = slices.Clone(s.Levels)
			s.Levels[3].SaturationCap = -5
		},
		func(s *mlckpt.Spec) { s.TeCoreDays = 1e304 },
	} {
		s := paper
		mut(&s)
		blob, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add([]byte(tableSpecJSON))
	f.Add([]byte("{nope"))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := LoadSpec(writeFile(t, data))
		if err != nil {
			if !errors.Is(err, ErrCLI) {
				t.Fatalf("error does not wrap ErrCLI: %v", err)
			}
			return
		}
		p, err := spec.Params()
		if err != nil {
			t.Fatalf("loaded spec fails Params: %v", err)
		}
		if !(p.Te > 0) || math.IsInf(p.Te, 1) {
			t.Fatalf("T_e %g s, want finite and positive", p.Te)
		}
		if b := p.Rates.Baseline; !(b > 0) || math.IsInf(b, 1) {
			t.Fatalf("baseline scale %g, want finite and positive", b)
		}
		if a := p.Alloc; !(a >= 0) || math.IsInf(a, 1) {
			t.Fatalf("allocation period %g, want finite and non-negative", a)
		}
		for i, r := range p.Rates.PerDay {
			if !(r >= 0) || math.IsInf(r, 1) {
				t.Fatalf("level %d failure rate %g, want finite and non-negative", i+1, r)
			}
		}
		for i, lv := range p.Levels {
			for _, c := range []overhead.Cost{lv.Checkpoint, lv.Recovery} {
				for _, v := range []float64{c.Const, c.Coeff, c.Cap} {
					if !(v >= 0) || math.IsInf(v, 1) {
						t.Fatalf("level %d cost %+v, want finite, non-negative constant, slope and cap", i+1, c)
					}
				}
			}
		}
		enc, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("loaded spec does not encode: %v", err)
		}
		back, err := LoadSpec(writeFile(t, enc))
		if err != nil {
			t.Fatalf("re-encoded spec does not load: %v", err)
		}
		again, err := json.Marshal(back)
		if err != nil {
			t.Fatalf("reloaded spec does not encode: %v", err)
		}
		if !bytes.Equal(enc, again) {
			t.Fatalf("encoding does not round-trip:\n%s\n%s", enc, again)
		}
	})
}

func TestPaperSpecFromFlags(t *testing.T) {
	spec, err := PaperSpecFromFlags(3e6, "16-12-8-4")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.FailuresPerDay) != 4 || spec.FailuresPerDay[0] != 16 {
		t.Errorf("rates = %v", spec.FailuresPerDay)
	}
	if _, err := PaperSpecFromFlags(0, "16-12-8-4"); !errors.Is(err, ErrCLI) {
		t.Errorf("zero te: %v", err)
	}
	if _, err := PaperSpecFromFlags(1e6, "garbage"); !errors.Is(err, ErrCLI) {
		t.Errorf("bad rates: %v", err)
	}
	if _, err := PaperSpecFromFlags(1e6, "1-2-3"); !errors.Is(err, ErrCLI) {
		t.Errorf("3 levels: %v", err)
	}
}

func TestResolveSpec(t *testing.T) {
	if _, err := ResolveSpec(false, "", 0, ""); !errors.Is(err, ErrCLI) {
		t.Errorf("no source: %v", err)
	}
	spec, err := ResolveSpec(true, "", 2e6, "8-6-4-2")
	if err != nil {
		t.Fatal(err)
	}
	if spec.TeCoreDays != 2e6 {
		t.Errorf("te = %g", spec.TeCoreDays)
	}
	path := writeSpec(t, mlckpt.PaperSpec(1e6, []float64{4, 3, 2, 1}))
	spec, err = ResolveSpec(false, path, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if spec.TeCoreDays != 1e6 {
		t.Errorf("file spec te = %g", spec.TeCoreDays)
	}
	// End-to-end: the resolved spec optimizes.
	if _, err := mlckpt.Optimize(spec, mlckpt.MLOptScale); err != nil {
		t.Errorf("resolved spec does not optimize: %v", err)
	}
}
