// Command dascbench runs the out-of-core million-point experiment: the
// one thing the repository's benchmark (bench/, `bash bench/run.sh`)
// does not do yet. It streams an Eq.-15 corpus of N documents into
// shard files, clusters them with the sharded MapReduce driver over a
// spill-enabled two-worker TCP cluster — once on the plain data plane,
// once compressed — replays the measured bucket structure through the
// EMR simulator, and writes wall times, data-plane counters and peak RSS
// to BENCH_<n>.json, where <n> is the next free index in the output
// directory.
//
// Usage:
//
//	go run ./cmd/dascbench -scale 1000000   # writes BENCH_<n>.json
//	go run ./cmd/dascbench -scale 100000 -spill 4194304 -scale-dir /data/shards
//	go run ./cmd/dascbench -scale N -out dir -note "…"
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Result is one phase's record; a field is set only for the phases it
// is meaningful for.
type Result struct {
	Name    string `json:"name"`
	NsPerOp int64  `json:"ns_per_op"`
	// Acc is the sampled same-category pair recall of the clustering.
	Acc          float64 `json:"acc,omitempty"`
	ShuffleBytes int64   `json:"shuffle_bytes,omitempty"`
	// Out-of-core counters: bytes spilled to sorted run files, shard
	// bytes demand-read by workers, and — for the EMR simulation — the
	// modeled disk traffic.
	SpillBytes     int64 `json:"spill_bytes,omitempty"`
	ShardReadBytes int64 `json:"shard_read_bytes,omitempty"`
	DiskBytes      int64 `json:"disk_bytes,omitempty"`
	// Compressed-data-plane counters (runs with Compression on): bytes
	// the flate passes removed from the shuffle and spill streams, the
	// resulting compressed/raw size ratio, and the wall time spent
	// inside the codec.
	CompressedBytes int64   `json:"compressed_bytes,omitempty"`
	CompressRatio   float64 `json:"compress_ratio,omitempty"`
	CompressNanos   int64   `json:"compress_ns,omitempty"`
	// Shard read-coalescing counters: ReadAt calls issued against shard
	// files and how many of them served more than one row.
	ShardReadOps   int64 `json:"shard_read_ops,omitempty"`
	CoalescedReads int64 `json:"coalesced_reads,omitempty"`
	// N is the dataset size and PeakRSSBytes the process peak resident
	// set (VmHWM) after the phase finished. InMemoryBytes is the
	// footprint the batch (all-in-RAM) pipeline would need for the same
	// phase, for comparison.
	N             int64 `json:"n,omitempty"`
	PeakRSSBytes  int64 `json:"peak_rss_bytes,omitempty"`
	InMemoryBytes int64 `json:"inmemory_bytes,omitempty"`
}

// Report is the BENCH_<n>.json document.
type Report struct {
	Note    string   `json:"note,omitempty"`
	Date    string   `json:"date"`
	Results []Result `json:"results"`
	// PeakRSSBytes is the process peak resident set at the end of the
	// whole run (VmHWM from /proc/self/status, or Go heap Sys where
	// unavailable).
	PeakRSSBytes int64 `json:"peak_rss_bytes,omitempty"`
}

// nextBenchPath returns <dir>/BENCH_<n>.json for the smallest n >= 1
// that does not exist yet.
func nextBenchPath(dir string) (string, error) {
	for n := 1; ; n++ {
		p := filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", n))
		if _, err := os.Stat(p); os.IsNotExist(err) {
			return p, nil
		} else if err != nil {
			return "", err
		}
	}
}

func run() error {
	out := flag.String("out", ".", "output directory for BENCH_<n>.json")
	note := flag.String("note", "", "free-form note stored in the report")
	scale := flag.Int("scale", 0, "corpus size N (required)")
	scaleDir := flag.String("scale-dir", "", "shard directory (default: a temp dir, removed afterwards)")
	spill := flag.Int64("spill", 32<<20, "spill budget in bytes")
	flag.Parse()
	if *scale <= 0 {
		return errors.New("-scale N is required; the regression benchmark is `bash bench/run.sh`")
	}
	rep := &Report{Note: *note, Date: time.Now().UTC().Format(time.RFC3339)}
	if err := benchScale(rep, *scale, *scaleDir, *spill); err != nil {
		return err
	}
	rep.PeakRSSBytes = peakRSS()
	return writeReport(rep, *out)
}

// writeReport marshals rep into the next free BENCH_<n>.json in dir.
func writeReport(rep *Report, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path, err := nextBenchPath(dir)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// peakRSS returns the process peak resident set in bytes: VmHWM from
// /proc/self/status where the kernel exposes it, else the Go runtime's
// OS-reserved heap as a floor.
func peakRSS() int64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseInt(fields[1], 10, 64); err == nil {
					return kb << 10
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Sys)
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dascbench:", err)
		os.Exit(1)
	}
}
