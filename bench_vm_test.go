package ediflow

// Compiled expression VM workloads: full-scan filtered SELECTs and
// aggregate scans at 10k and 100k rows. See internal/benchkit/vm.go for
// the workloads and cmd/benchjson -suite vm for the JSON emitter.

import (
	"testing"

	"ediflow/internal/benchkit"
)

func BenchmarkVMScanCompiled10k(b *testing.B)  { benchkit.VMScan(b, 10_000) }
func BenchmarkVMScanCompiled100k(b *testing.B) { benchkit.VMScan(b, 100_000) }

func BenchmarkVMAggregateCompiled10k(b *testing.B)  { benchkit.VMAggregate(b, 10_000) }
func BenchmarkVMAggregateCompiled100k(b *testing.B) { benchkit.VMAggregate(b, 100_000) }
