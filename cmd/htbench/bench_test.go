package main

import "testing"

// BenchmarkSuite is the `go test -bench` view of the suites registry:
// every benchmark behind a committed BENCH_<suite>.json runs as
// BenchmarkSuite/<suite>/<name> with the exact body htbench records, so
// there is one declared set of benchmarks and a new registry entry is
// picked up here without further wiring. The scaling suite is left out,
// as it is from -suite all: its 10k-campaign cells are `make
// bench-scaling`'s measurement, too heavy for a smoke run.
//
//	go test -run=NONE -bench 'Suite/campaign/CampaignFleet$' ./cmd/htbench
func BenchmarkSuite(b *testing.B) {
	for _, s := range suites {
		b.Run(s.name, func(b *testing.B) {
			for _, def := range s.benchmarks {
				b.Run(def.name, func(b *testing.B) {
					b.ReportAllocs()
					def.fn(b)
				})
			}
		})
	}
}
