//go:build largescale

package core

import "testing"

// largeScaleCases are the scale runs, each through Run over an Eq.-15
// corpus in shard files (scaleCase.run). 100k-local is the
// out-of-core smoke on mapreduce.Local; the two 2²⁰ cases run the
// paper's million-document scale over two in-process TCP workers, plain
// and with Compression.
var largeScaleCases = []scaleCase{
	// The 100k shuffle is 261 918 B; 64 KiB is below a quarter of it.
	// Pair recall 0.0915.
	{name: "100k-local", n: 100_000, spill: 64 << 10, minRecall: 0.09},
	// The 2²⁰ shuffle is 1 715 961 B plain and 1 095 861 B compressed;
	// 256 KiB is below a quarter of either. Pair recall 0.0654 on both.
	{name: "1M-tcp", n: 1 << 20, workers: 2, spill: 256 << 10, minRecall: 0.065},
	{name: "1M-tcp-compressed", n: 1 << 20, workers: 2, spill: 256 << 10, compress: true, minRecall: 0.065},
}

// TestLargeScaleOutOfCore runs the scale cases. Build tag `largescale`
// keeps it out of the default suite. Run one case per process, so the
// logged max RSS is that case's:
//
//	go test -tags largescale -run 'TestLargeScaleOutOfCore/1M-tcp$' -timeout 30m -v ./internal/core/
func TestLargeScaleOutOfCore(t *testing.T) {
	if testing.Short() {
		t.Skip("largescale cases skipped in -short mode")
	}
	for _, c := range largeScaleCases {
		t.Run(c.name, c.run)
	}
}
