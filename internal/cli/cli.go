// Package cli holds the shared plumbing of the command-line tools:
// loading problem specifications from JSON files and building the paper's
// canonical evaluation problem from flags.
package cli

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"mlckpt"
	"mlckpt/internal/failure"
)

// ErrCLI is returned for unusable inputs.
var ErrCLI = errors.New("cli: invalid input")

// LoadSpec reads a JSON-encoded mlckpt.Spec and validates it.
func LoadSpec(path string) (mlckpt.Spec, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return mlckpt.Spec{}, err
	}
	var spec mlckpt.Spec
	if err := json.Unmarshal(blob, &spec); err != nil {
		return mlckpt.Spec{}, fmt.Errorf("%w: parsing %s: %v", ErrCLI, path, err)
	}
	if _, err := spec.Params(); err != nil {
		return mlckpt.Spec{}, fmt.Errorf("%w: %s: %w", ErrCLI, path, err)
	}
	return spec, nil
}

// PaperSpecFromFlags builds the paper's Section IV problem from the
// -te/-rates flag values.
func PaperSpecFromFlags(teCoreDays float64, ratesSpec string) (mlckpt.Spec, error) {
	if teCoreDays <= 0 {
		return mlckpt.Spec{}, fmt.Errorf("%w: -te must be positive, got %g", ErrCLI, teCoreDays)
	}
	r, err := failure.ParseRates(ratesSpec, 1e6)
	if err != nil {
		return mlckpt.Spec{}, fmt.Errorf("%w: -rates: %v", ErrCLI, err)
	}
	if r.Levels() != 4 {
		return mlckpt.Spec{}, fmt.Errorf("%w: the paper problem has 4 levels, -rates has %d", ErrCLI, r.Levels())
	}
	return mlckpt.PaperSpec(teCoreDays, r.PerDay), nil
}

// ResolveSpec dispatches between -paper and -spec inputs.
func ResolveSpec(paper bool, specPath string, teCoreDays float64, ratesSpec string) (mlckpt.Spec, error) {
	switch {
	case paper:
		return PaperSpecFromFlags(teCoreDays, ratesSpec)
	case specPath != "":
		return LoadSpec(specPath)
	default:
		return mlckpt.Spec{}, fmt.Errorf("%w: need -paper or -spec", ErrCLI)
	}
}
