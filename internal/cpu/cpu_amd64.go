package cpu

// cpuid executes the CPUID instruction with the given leaf/subleaf.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (the XCR0 state mask).
func xgetbv() (eax, edx uint32)

func init() {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return
	}
	_, _, ecx1, _ := cpuid(1, 0)
	hasOSXSAVE := ecx1&(1<<27) != 0
	hasAVX := ecx1&(1<<28) != 0
	if !hasOSXSAVE || !hasAVX {
		return
	}
	// The OS must have enabled XMM (bit 1) and YMM (bit 2) state saving,
	// or AVX registers are silently clobbered across context switches.
	xcr0, _ := xgetbv()
	if xcr0&0x6 != 0x6 {
		return
	}
	_, ebx7, ecx7, _ := cpuid(7, 0)
	X86.HasAVX2 = ebx7&(1<<5) != 0
	X86.HasGFNI = ecx7&(1<<8) != 0
}
