package cpu

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

func TestFlagsConsistent(t *testing.T) {
	// On non-amd64 hosts every flag must stay false (there is no detector).
	if runtime.GOARCH != "amd64" && (X86.HasAVX2 || X86.HasGFNI) {
		t.Fatalf("HasAVX2 = %v, HasGFNI = %v on %s, want false", X86.HasAVX2, X86.HasGFNI, runtime.GOARCH)
	}
	t.Logf("GOARCH=%s HasAVX2=%v HasGFNI=%v", runtime.GOARCH, X86.HasAVX2, X86.HasGFNI)
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		return
	}
	// The kernel's view of the same CPUID bits: it lists avx2 only with
	// OS-enabled YMM state, as HasAVX2 requires. It lists gfni whatever
	// the YMM state, so HasGFNI, which also needs that state for the
	// VEX forms, is compared against gfni and avx together.
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	flags := cpuinfoFlags(data)
	if flags == nil {
		t.Skip("/proc/cpuinfo has no flags line")
	}
	if want := flags["avx2"]; X86.HasAVX2 != want {
		t.Errorf("HasAVX2 = %v, /proc/cpuinfo lists avx2: %v", X86.HasAVX2, want)
	}
	if want := flags["gfni"] && flags["avx"]; X86.HasGFNI != want {
		t.Errorf("HasGFNI = %v, /proc/cpuinfo lists gfni and avx: %v", X86.HasGFNI, want)
	}
}

// cpuinfoFlags returns the words of the first "flags" line of a
// /proc/cpuinfo dump, or nil when there is none.
func cpuinfoFlags(data []byte) map[string]bool {
	for _, line := range strings.Split(string(data), "\n") {
		key, val, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(key) != "flags" {
			continue
		}
		words := map[string]bool{}
		for _, w := range strings.Fields(val) {
			words[w] = true
		}
		return words
	}
	return nil
}
