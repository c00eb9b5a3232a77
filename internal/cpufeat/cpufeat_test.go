package cpufeat

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestAVX2MatchesKernelFlags cross-checks the CPUID probe against the flags
// Linux reports for the first processor, when the file is readable.
func TestAVX2MatchesKernelFlags(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		if AVX2 {
			t.Fatalf("AVX2 = true on %s", runtime.GOARCH)
		}
		return
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			if want := slices.Contains(strings.Fields(flags), "avx2"); AVX2 != want {
				t.Fatalf("AVX2 = %v, /proc/cpuinfo lists avx2: %v", AVX2, want)
			}
			return
		}
	}
	t.Skip("no flags line in /proc/cpuinfo")
}
