package quant

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// The AVX-512 probe against the operating system's own answer: Linux
// lists avx2, avx512f, avx512bw and avx512vl in /proc/cpuinfo only when
// the CPU has them and the kernel saves the state they need — it clears
// the avx512 flags when XCR0 lacks the ZMM state — which is what
// CPUHasAVX512 reads from CPUID and XCR0.
func TestCPUHasAVX512MatchesCPUInfo(t *testing.T) {
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
		fields := strings.Fields(flags)
		want := true
		for _, flag := range []string{"avx", "avx2", "avx512f", "avx512bw", "avx512vl"} {
			want = want && slices.Contains(fields, flag)
		}
		if got := CPUHasAVX512(); got != want {
			t.Fatalf("CPUHasAVX512() = %v, /proc/cpuinfo avx2/avx512f/avx512bw/avx512vl flags all present = %v", got, want)
		}
		if probed512 != want {
			t.Fatalf("wide512 = %v, probe says %v", probed512, want)
		}
		return
	}
	t.Skip("/proc/cpuinfo has no flags line")
}
