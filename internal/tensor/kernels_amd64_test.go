package tensor

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// The probe against the operating system's own answer: Linux lists the
// avx flag in /proc/cpuinfo only when the CPU has AVX and the kernel
// saves the YMM state — it clears the flag otherwise — which is what
// cpuHasAVX reads from CPUID and XCR0.
func TestCPUHasAVXMatchesCPUInfo(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skipf("no /proc/cpuinfo on %s", runtime.GOOS)
	}
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("read /proc/cpuinfo: %v", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		key, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(key) != "flags" {
			continue
		}
		want := slices.Contains(strings.Fields(flags), "avx")
		if got := cpuHasAVX(); got != want {
			t.Fatalf("cpuHasAVX() = %v, /proc/cpuinfo avx flag present = %v", got, want)
		}
		if wideAccumulate != want {
			t.Fatalf("wideAccumulate = %v, probe says %v", wideAccumulate, want)
		}
		return
	}
	t.Skip("/proc/cpuinfo has no flags line")
}
