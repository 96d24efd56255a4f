package benchio

import (
	"os"
	"testing"
	"time"
)

// osWriteFile indirects os.WriteFile for raw-JSON fixtures.
func osWriteFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

// osReadFile mirrors osWriteFile for raw-JSON assertions.
func osReadFile(path string) ([]byte, error) {
	return os.ReadFile(path)
}

// benchResult fabricates a testing.BenchmarkResult with exact counters.
func benchResult(n int, total time.Duration, allocs, bytes uint64) testing.BenchmarkResult {
	return testing.BenchmarkResult{
		N: n, T: total,
		MemAllocs: allocs, MemBytes: bytes,
	}
}
