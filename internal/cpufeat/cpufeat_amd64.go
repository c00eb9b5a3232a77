package cpufeat

// cpuid executes CPUID with the given leaf and subleaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns XCR0, the extended-state enable mask. Only valid when
// CPUID reports OSXSAVE.
func xgetbv() (eax, edx uint32)

// osAVX reports AVX with operating-system support for the YMM state, and
// returns CPUID leaf 1's ECX for the caller's further feature bits.
func osAVX() (ecx1 uint32, ok bool) {
	_, _, ecx1, _ = cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return ecx1, false
	}
	// XCR0 bit 1 is the SSE (XMM) state, bit 2 the AVX (upper YMM) state.
	xcr0, _ := xgetbv()
	return ecx1, xcr0&6 == 6
}

func detectAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, ok := osAVX(); !ok {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

func detectFMA() bool {
	ecx1, ok := osAVX()
	const fma = 1 << 12
	return ok && ecx1&fma != 0
}
