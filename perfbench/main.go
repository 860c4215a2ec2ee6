// Command perfbench is BlockPilot's end-to-end benchmark: a single-process,
// closed-loop harness that takes each height's transactions through the
// proposer's mempool and OCC-WSI packing, across the in-process network, and
// through a validator's pipeline commit. One height is in flight at a time.
//
//	go run . --workload mainnet --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same loop and
// then times each layer's public functions on the blocks it produced. The
// last line of standard output is one JSON object; the line before it is the
// run's stamp (revision, toolchain, CPUs, seed, workload parameters). Any
// failed correctness check exits non-zero without a result. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"blockpilot/internal/types"
)

const (
	// setupRounds is how many times a run builds its rig; setup_s is the
	// median, and only the last rig runs the timed loop.
	setupRounds = 3
	// warmupHeights run inside set-up, before the clock starts.
	warmupHeights = 5
	// minHeights keeps the p90 latencies backed by ten samples beyond them.
	minHeights = 100
	// heapAtHeight is the timed height after which retained heap is
	// sampled: a fixed point, so a faster program that runs more heights
	// is not charged for the extra chain state it keeps.
	heapAtHeight = minHeights
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workdir  string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "mainnet", "mainnet, hotspot-fork or transfer-disk")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 20, "length of the timed loop in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for the disk backend's store")
	flag.Parse()
	o.trace = trace == 1
	if (trace != 0 && trace != 1) || o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1 and --seconds at least 1")
		os.Exit(2)
	}
	res, st, err := run(o, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"stamp": st}); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		os.Exit(1)
	}
}

// run executes one benchmark run. tamper, when non-nil, is installed on the
// rig that runs the timed loop (self-test only).
func run(o options, tamper func(number uint64, b *types.Block)) (*result, *stamp, error) {
	sp, err := lookupWorkload(o.workload)
	if err != nil {
		return nil, nil, err
	}
	threads := runtime.GOMAXPROCS(0)

	var setups []float64
	var r *rig
	for i := 0; i < setupRounds; i++ {
		start := time.Now()
		r, err = newRig(sp, o.seed, o.workdir, threads)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		for w := 0; w < warmupHeights; w++ {
			if _, err := r.step(); err != nil {
				r.close()
				return nil, nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setupRounds-1 {
			r.close()
		}
	}
	defer r.close()
	r.tamper = tamper

	loop, err := timedLoop(r, time.Duration(o.seconds)*time.Second)
	if err != nil {
		return nil, nil, err
	}
	if err := r.verifyAll(); err != nil {
		return nil, nil, err
	}
	st := newStamp(o, sp, len(loop.heights))

	res := &result{Correct: true, Metrics: map[string]metric{}}
	for _, h := range loop.heights {
		res.Attempted += len(h.txs)
		res.Failed += h.dropped
	}
	if !o.trace {
		endToEnd(res, loop, median(setups))
		return res, st, nil
	}
	if err := perLayer(res, r, loop); err != nil {
		return nil, nil, err
	}
	return res, st, nil
}

// loopResult is the timed part of a run.
type loopResult struct {
	heights []*height
	heapMB  float64
	// The validator's disk-backend counters across the loop (zero on the
	// in-memory backend).
	dbBefore, dbAfter dbCounters
}

// timedLoop runs heights until both the duration and minHeights are reached.
func timedLoop(r *rig, d time.Duration) (*loopResult, error) {
	l := &loopResult{dbBefore: readDB(r)}
	start := time.Now()
	for time.Since(start) < d || len(l.heights) < minHeights {
		h, err := r.step()
		if err != nil {
			return nil, err
		}
		l.heights = append(l.heights, h)
		if len(l.heights) == heapAtHeight {
			l.heapMB = heapInuseMB()
		}
	}
	l.dbAfter = readDB(r)
	return l, nil
}

// txPerSecond is canonical transactions committed per second of height
// time, over every timed height: a slow height anywhere in the run counts.
func txPerSecond(hs []*height) float64 {
	var txs int
	var wall time.Duration
	for _, h := range hs {
		txs += h.committed
		wall += h.wall()
	}
	return float64(txs) / wall.Seconds()
}

func endToEnd(res *result, l *loopResult, setup float64) {
	var propose, s2c []float64
	for _, h := range l.heights {
		propose = append(propose, ms(h.propose))
		s2c = append(s2c, ms(h.sealToCommit))
	}
	m := res.Metrics
	m["tx_per_s"] = metric{txPerSecond(l.heights), "1/s"}
	m["propose_ms_p50"] = metric{percentile(propose, 50), "ms"}
	m["propose_ms_p90"] = metric{percentile(propose, 90), "ms"}
	m["seal_to_commit_ms_p50"] = metric{percentile(s2c, 50), "ms"}
	m["seal_to_commit_ms_p90"] = metric{percentile(s2c, 90), "ms"}
	m["retained_heap_mb"] = metric{l.heapMB, "MB"}
	m["setup_s"] = metric{setup, "s"}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// percentile interpolates linearly between closest ranks.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return percentile(v, 50) }
