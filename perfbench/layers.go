package main

import (
	"sort"
	"time"

	"blockpilot/internal/chain"
	"blockpilot/internal/core"
	"blockpilot/internal/mempool"
	"blockpilot/internal/scheduler"
	"blockpilot/internal/state"
	"blockpilot/internal/trie"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
	"blockpilot/internal/validator"
)

// layerSamples is how many timed heights, evenly spaced, the traced run
// re-times layer by layer after the loop.
const layerSamples = 24

// prepareReps repeats the microsecond-scale scheduler preparation per block.
const prepareReps = 5

// dbCounters are the validator's disk-backend counters at one instant.
type dbCounters struct {
	stats trie.DBStats
	size  int64
}

func readDB(r *rig) dbCounters {
	if r.valDB == nil {
		return dbCounters{}
	}
	return dbCounters{stats: r.valDB.Stats(), size: r.valDB.Store().Size()}
}

// blockTimes are one block's isolated layer timings.
type blockTimes struct {
	serial, propN, prop1 time.Duration // ExecuteSerial; Propose at nproc and 1 thread
	verify, valN, val1   time.Duration // VerifyBlockSerial; ValidateParallel at nproc and 1
	// The serial split: ApplyTransaction calls, CommitAndRoot, and the
	// rest of a serial verification (change-set merging, profiles, finalization,
	// header commitments).
	apply, commitRoot, other time.Duration
	prepare                  time.Duration // BuildComponentsParallel + AssignLPT (median of reps)
	gas                      uint64
	siblingValN              time.Duration // ValidateParallel of the sibling at nproc
	addAll                   time.Duration // Pool.AddAll of the height's transactions
}

func perLayer(res *result, r *rig, l *loopResult) error {
	m := res.Metrics
	put := func(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }
	hs := l.heights
	n := float64(len(hs))
	put("traced.tx_per_s", txPerSecond(hs), "1/s")

	var committed, aborts float64
	var comps, largest, bound, imbalance float64
	var deliver []float64
	for _, h := range hs {
		committed += float64(h.committed)
		aborts += float64(h.aborts)
		c := scheduler.BuildComponentsParallel(h.blocks[0].Profile, true, r.threads)
		st := scheduler.ComputeStats(c)
		comps += float64(st.ComponentCount)
		largest += st.LargestRatio
		bound += st.ParallelismUpper
		imbalance += lptImbalance(scheduler.AssignLPT(c, r.threads))
		for _, d := range h.deliver {
			deliver = append(deliver, float64(d.Nanoseconds())/1e3)
		}
	}
	put("core.aborts_per_block", aborts/n, "count")
	put("core.useful_ratio", committed/(committed+aborts), "ratio")
	put("scheduler.components_per_block", comps/n, "count")
	put("scheduler.largest_share", largest/n, "ratio")
	put("scheduler.parallelism_bound", bound/n, "x")
	put("scheduler.lpt_imbalance", imbalance/n, "x")
	put("network.deliver_us_p50", median(deliver), "us")

	// Disk backend: deltas of the validator's store across the timed loop.
	// The in-memory backend resolves no nodes and reads no store, which
	// these values state.
	before, after := l.dbBefore, l.dbAfter
	hit, amp, flat := 1.0, 0.0, 0.0
	if d := after.stats.Resolves - before.stats.Resolves; d > 0 {
		hit = float64(after.stats.CacheHits-before.stats.CacheHits) / float64(d)
	}
	if d := after.stats.LogicalReads - before.stats.LogicalReads; d > 0 {
		amp = float64(after.stats.DiskReads-before.stats.DiskReads) / float64(d)
		flat = float64(after.stats.FlatHits-before.stats.FlatHits) / float64(d)
	}
	put("trie.cache_hit_ratio", hit, "ratio")
	put("trie.read_amplification", amp, "ratio")
	put("trie.flat_hit_ratio", flat, "ratio")
	put("store.mb_per_block", float64(after.size-before.size)/(1<<20)/n, "MB")

	// Isolated timings on sampled heights.
	var sum blockTimes
	var prepares, addNs []float64
	var overlapNum, overlapDen, waitSum time.Duration
	var waitN int
	sampled := sampleHeights(hs, layerSamples)
	for _, h := range sampled {
		t, err := timeBlock(r, h)
		if err != nil {
			return err
		}
		sum.serial += t.serial
		sum.propN += t.propN
		sum.prop1 += t.prop1
		sum.verify += t.verify
		sum.valN += t.valN
		sum.val1 += t.val1
		sum.apply += t.apply
		sum.commitRoot += t.commitRoot
		sum.other += t.other
		sum.gas += t.gas
		prepares = append(prepares, float64(t.prepare.Nanoseconds())/1e3)
		addNs = append(addNs, float64(t.addAll.Nanoseconds())/float64(len(h.txs)))

		isolated := []time.Duration{t.valN, t.siblingValN}
		for i := range h.blocks {
			overlapNum += isolated[i]
			waitSum += h.elapsed[i] - isolated[i]
			waitN++
		}
		overlapDen += h.broadcastTo
	}
	samples := float64(len(sampled))
	put("mempool.add_ns_per_tx", median(addNs), "ns")
	put("core.speedup_vs_serial", ratio(sum.serial, sum.propN), "x")
	put("core.overhead_1t", ratio(sum.prop1, sum.serial), "x")
	put("evm.apply_ms_per_block", ms(sum.apply)/samples, "ms")
	put("evm.mgas_per_s", float64(sum.gas)/1e6/sum.apply.Seconds(), "Mgas/s")
	put("state.commit_root_ms_per_block", ms(sum.commitRoot)/samples, "ms")
	put("state.commit_root_share", ratio(sum.commitRoot, sum.apply+sum.commitRoot), "ratio")
	put("serial.other_ms_per_block", ms(sum.other)/samples, "ms")
	put("serial.split_coverage", ratio(sum.apply+sum.commitRoot+sum.other, sum.verify), "ratio")
	put("scheduler.prepare_us", median(prepares), "us")
	put("validator.validate_ms", ms(sum.valN)/samples, "ms")
	put("validator.speedup_vs_serial", ratio(sum.verify, sum.valN), "x")
	put("validator.overhead_1t", ratio(sum.val1, sum.verify), "x")
	put("pipeline.overlap", ratio(overlapNum, overlapDen), "x")
	put("pipeline.wait_ms", ms(waitSum)/float64(waitN), "ms")
	return nil
}

func ratio(a, b time.Duration) float64 { return a.Seconds() / b.Seconds() }

// sampleHeights picks up to k heights evenly spaced over hs.
func sampleHeights(hs []*height, k int) []*height {
	if len(hs) <= k {
		return hs
	}
	out := make([]*height, k)
	for i := range out {
		out[i] = hs[i*len(hs)/k]
	}
	return out
}

// lptImbalance is the busiest thread's assigned gas over the mean.
func lptImbalance(s *scheduler.Schedule) float64 {
	var maxGas, total uint64
	for _, g := range s.ThreadGas {
		total += g
		if g > maxGas {
			maxGas = g
		}
	}
	if total == 0 {
		return 1
	}
	return float64(maxGas) * float64(len(s.ThreadGas)) / float64(total)
}

func timed(f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	return time.Since(start), err
}

// timeBlock calls each layer's public functions on one height's canonical
// block (and its sibling), over the validator's copy of the parent state.
func timeBlock(r *rig, h *height) (blockTimes, error) {
	var t blockTimes
	b := h.blocks[0]
	parent := r.val.Block(b.Header.ParentHash)
	ps := r.val.StateOf(parent.Hash())
	params := r.params
	var err error

	pool := mempool.New()
	t.addAll, _ = timed(func() error { pool.AddAll(h.txs); return nil })

	// One untimed replay first, so every timed call below finds the disk
	// backend's caches in the same warm state rather than favouring the
	// later calls.
	serial := func() error {
		_, err := chain.ExecuteSerial(ps, &b.Header, b.Txs, params)
		return err
	}
	if err := serial(); err != nil {
		return t, gateErr("serial execution of height %d: %v", b.Number(), err)
	}
	if t.serial, err = timed(serial); err != nil {
		return t, gateErr("serial execution of height %d: %v", b.Number(), err)
	}
	propose := func(threads int) (time.Duration, error) {
		pool := mempool.New()
		pool.AddAll(b.Txs)
		return timed(func() error {
			_, err := core.Propose(ps, &parent.Header, pool, core.ProposerConfig{
				Threads: threads, Coinbase: b.Header.Coinbase, Time: b.Header.Time,
			}, params)
			return err
		})
	}
	if t.propN, err = propose(r.threads); err != nil {
		return t, err
	}
	if t.prop1, err = propose(1); err != nil {
		return t, err
	}
	if t.verify, err = timed(func() error {
		_, err := chain.VerifyBlockSerial(ps, &parent.Header, b, params)
		return err
	}); err != nil {
		return t, gateErr("serial verification of height %d: %v", b.Number(), err)
	}
	validate := func(blk *types.Block, threads int) (time.Duration, error) {
		d, err := timed(func() error {
			_, err := validator.ValidateParallel(ps, &parent.Header, blk, validator.DefaultConfig(threads), params)
			return err
		})
		if err != nil {
			err = gateErr("isolated validation of height %d: %v", blk.Number(), err)
		}
		return d, err
	}
	if t.valN, err = validate(b, r.threads); err != nil {
		return t, err
	}
	if t.val1, err = validate(b, 1); err != nil {
		return t, err
	}
	if len(h.blocks) > 1 {
		if t.siblingValN, err = validate(h.blocks[1], r.threads); err != nil {
			return t, err
		}
	}
	if err := splitSerial(ps, b, params, &t); err != nil {
		return t, err
	}

	reps := make([]time.Duration, prepareReps)
	for i := range reps {
		reps[i], _ = timed(func() error {
			scheduler.AssignLPT(scheduler.BuildComponentsParallel(b.Profile, true, r.threads), r.threads)
			return nil
		})
	}
	sort.Slice(reps, func(i, j int) bool { return reps[i] < reps[j] })
	t.prepare = reps[len(reps)/2]
	return t, nil
}

// splitSerial replays the block the way VerifyBlockSerial does, timing the
// ApplyTransaction calls, the CommitAndRoot tail and everything else apart.
// It mirrors the body of chain.VerifyBlockSerial, which offers no timing
// hook; the root check below and serial.split_coverage catch some drift
// between the two, not all. A split API in chain would let this copy go.
func splitSerial(ps *state.Snapshot, b *types.Block, params chain.Params, t *blockTimes) error {
	bc := chain.BlockContextFor(&b.Header, params.ChainID)
	accum := state.NewMemory(ps)
	total := state.NewChangeSet()
	profile := &types.BlockProfile{}
	receipts := make([]*types.Receipt, 0, len(b.Txs))
	var fees uint256.Int
	for i, tx := range b.Txs {
		o := state.NewOverlay(accum, types.Version(i))
		start := time.Now()
		receipt, fee, err := chain.ApplyTransaction(o, tx, bc)
		mid := time.Now()
		t.apply += mid.Sub(start)
		if err != nil {
			return gateErr("apply tx %d of height %d: %v", i, b.Number(), err)
		}
		t.gas += receipt.GasUsed
		receipts = append(receipts, receipt)
		fees.Add(&fees, fee)
		profile.Txs = append(profile.Txs, types.ProfileFromAccessSet(o.Access(), receipt.GasUsed))
		cs := o.ChangeSet()
		accum.ApplyChangeSet(cs)
		total.Merge(cs)
		t.other += time.Since(mid)
	}
	start := time.Now()
	total.Merge(chain.FinalizationChange(accum, b.Header.Coinbase, &fees, params))
	mid := time.Now()
	_, root := chain.CommitAndRoot(ps, total, params, b.Number())
	end := time.Now()
	types.ComputeTxRoot(b.Txs)
	types.ComputeReceiptRoot(receipts)
	types.CreateBloom(receipts)
	t.other += mid.Sub(start) + time.Since(end)
	t.commitRoot += end.Sub(mid)
	if root != b.Header.StateRoot {
		return gateErr("split replay of height %d: root %s != header %s", b.Number(), root, b.Header.StateRoot)
	}
	return nil
}
