package cpufeat

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// checkKernelFlag cross-checks a CPUID probe against the flag Linux reports
// for the first processor, when the file is readable.
func checkKernelFlag(t *testing.T, flag string, got bool) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		if got {
			t.Fatalf("%s = true on %s", flag, runtime.GOARCH)
		}
		return
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			if want := slices.Contains(strings.Fields(flags), flag); got != want {
				t.Fatalf("%s probe = %v, /proc/cpuinfo lists %s: %v", flag, got, flag, want)
			}
			return
		}
	}
	t.Skip("no flags line in /proc/cpuinfo")
}

func TestAVX2MatchesKernelFlags(t *testing.T) { checkKernelFlag(t, "avx2", AVX2) }

func TestFMAMatchesKernelFlags(t *testing.T) { checkKernelFlag(t, "fma", FMA) }
