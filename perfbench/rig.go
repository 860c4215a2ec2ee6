package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"blockpilot/internal/chain"
	"blockpilot/internal/core"
	"blockpilot/internal/mempool"
	"blockpilot/internal/network"
	"blockpilot/internal/pipeline"
	"blockpilot/internal/state"
	"blockpilot/internal/trie"
	"blockpilot/internal/types"
	"blockpilot/internal/validator"
)

// propagationDelay is the simulated link latency cmd/blockpilot uses.
const propagationDelay = 200 * time.Microsecond

// outcomeTimeout bounds the wait for the validator's verdict on one height;
// it only fires if the pipeline hangs.
const outcomeTimeout = 60 * time.Second

var (
	proposerCoinbase = types.HexToAddress("0x000000000000000000000000000000000000abc0")
	siblingCoinbase  = types.HexToAddress("0x000000000000000000000000000000000000abc1")
)

// errGate marks a failed correctness check: the run reports no numbers.
var errGate = errors.New("correctness gate")

func gateErr(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{errGate}, args...)...)
}

// height is what one closed-loop height produced and how long it took.
type height struct {
	txs       []*types.Transaction // generated for this height
	blocks    []*types.Block       // canonical first, then the sibling
	committed int                  // transactions in the canonical block
	aborts    int
	dropped   int

	propose      time.Duration // AddAll until Propose returns
	sealToCommit time.Duration // Propose returns until the last Outcome
	broadcastTo  time.Duration // first Broadcast until the last Outcome
	deliver      []time.Duration
	elapsed      []time.Duration // Outcome.Elapsed per block, in blocks order
}

func (h *height) wall() time.Duration { return h.propose + h.sealToCommit }

// rig is one proposer node and one validator node joined by the in-process
// network. The proposer keeps a persistent mempool and its own chain; the
// validator commits every block through its pipeline into a second chain.
type rig struct {
	spec    *spec
	threads int
	params  chain.Params
	src     source
	dir     string
	// The disk backend gives each node its own store (nil in memory): the
	// validator opens a copy of the genesis store, so it writes its own
	// nodes and meets its own cold cache.
	propDB, valDB *trie.Database

	pool   *mempool.Pool
	prop   *chain.Chain
	val    *chain.Chain
	pipe   *pipeline.Pipeline
	fabric *network.Network
	pnode  *network.Node // canonical proposer
	snode  *network.Node // sibling proposer (fork workloads)
	vnode  *network.Node
	pumps  sync.WaitGroup

	arrivedMu sync.Mutex
	arrived   map[types.Hash]time.Time // block hash → receipt at the validator's inbox

	generated int
	dropped   int
	heights   []*height

	// tamper, when set, may alter the canonical block before Broadcast; the
	// self-test uses it to prove the gate fires.
	tamper func(number uint64, b *types.Block)
}

// newRig builds genesis, both chains, the pipeline and the network.
func newRig(sp *spec, seed int64, workdir string, threads int) (*rig, error) {
	r := &rig{
		spec:    sp,
		threads: threads,
		params:  chain.DefaultParams(),
		src:     sp.newSource(seed),
		pool:    mempool.New(),
		arrived: make(map[types.Hash]time.Time),
	}
	if sp.disk {
		if err := os.MkdirAll(workdir, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(workdir, "state-")
		if err != nil {
			return nil, err
		}
		r.dir = dir
		if r.propDB, err = trie.OpenDatabase(filepath.Join(dir, "proposer.db"), sp.cacheNodes); err != nil {
			r.closeStores()
			return nil, err
		}
	}
	genesis := r.src.genesis(r.propDB)
	valGenesis := genesis.Copy()
	if sp.disk {
		var err error
		if valGenesis, err = r.openValidatorStore(genesis.Root()); err != nil {
			r.closeStores()
			return nil, err
		}
	}
	r.prop = chain.NewChain(genesis.Copy(), r.params)
	r.val = chain.NewChain(valGenesis, r.params)
	r.pipe = pipeline.New(r.val, validator.DefaultConfig(threads), nil)
	r.fabric = network.New(propagationDelay)
	r.pnode = r.fabric.Join("proposer", 256)
	r.vnode = r.fabric.Join("validator", 256)
	drain := []*network.Node{r.pnode}
	if sp.fork {
		r.snode = r.fabric.Join("proposer-b", 256)
		drain = append(drain, r.snode)
	}
	r.pumps.Add(1 + len(drain))
	go func() {
		defer r.pumps.Done()
		for msg := range r.vnode.Inbox() {
			now := time.Now()
			r.arrivedMu.Lock()
			r.arrived[msg.Block.Hash()] = now
			r.arrivedMu.Unlock()
			r.pipe.Submit(msg.Block)
		}
	}()
	for _, n := range drain {
		n := n
		go func() {
			defer r.pumps.Done()
			for range n.Inbox() { // proposers do not validate each other here
			}
		}()
	}
	return r, nil
}

// openValidatorStore copies the proposer's genesis store to a second file
// and opens the validator's state at root from it.
func (r *rig) openValidatorStore(root types.Hash) (*state.Snapshot, error) {
	if err := r.propDB.Store().Sync(); err != nil {
		return nil, err
	}
	path := filepath.Join(r.dir, "validator.db")
	if err := copyFile(r.propDB.Store().Path(), path); err != nil {
		return nil, err
	}
	db, err := trie.OpenDatabase(path, r.spec.cacheNodes)
	if err != nil {
		return nil, err
	}
	r.valDB = db
	return state.OpenSnapshot(db, root)
}

func copyFile(from, to string) error {
	src, err := os.Open(from)
	if err != nil {
		return err
	}
	defer src.Close()
	dst, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(dst, src); err != nil {
		dst.Close()
		return err
	}
	return dst.Close()
}

// close stops the network, the pumps and the pipeline, and removes the
// disk stores.
func (r *rig) close() {
	r.fabric.Close()
	r.pumps.Wait()
	r.pipe.Close()
	for range r.pipe.Results() {
	}
	r.closeStores()
}

// closeStores closes both nodes' stores and removes their directory.
func (r *rig) closeStores() {
	for _, db := range []*trie.Database{r.propDB, r.valDB} {
		if db != nil {
			db.Close()
		}
	}
	if r.dir != "" {
		os.RemoveAll(r.dir)
	}
}

// step runs one height: generate (and seal the sibling) off the clock, then
// AddAll → Propose → insert → Broadcast → wait for every Outcome.
func (r *rig) step() (*height, error) {
	h := &height{txs: r.src.next()}
	r.generated += len(h.txs)
	head := r.prop.Head()
	parent := r.prop.StateOf(head.Hash())
	number := head.Number() + 1

	var sibling *types.Block
	if r.spec.fork {
		hdr := &types.Header{ParentHash: head.Hash(), Number: number, Coinbase: siblingCoinbase,
			GasLimit: r.params.GasLimit, Time: number}
		res, err := chain.ExecuteSerial(parent, hdr, h.txs, r.params)
		if err != nil {
			return nil, fmt.Errorf("seal sibling at %d: %w", number, err)
		}
		sibling = chain.SealBlock(&head.Header, siblingCoinbase, number, h.txs, res, r.params)
	}

	t0 := time.Now()
	r.pool.AddAll(h.txs)
	res, err := core.Propose(parent, &head.Header, r.pool, core.ProposerConfig{
		Threads: r.threads, Coinbase: proposerCoinbase, Time: number,
	}, r.params)
	t1 := time.Now()
	if err != nil {
		return nil, fmt.Errorf("propose at %d: %w", number, err)
	}
	block := res.Block
	if got := res.State.Root(); got != block.Header.StateRoot {
		return nil, gateErr("height %d: proposer state %s != header root %s", number, got, block.Header.StateRoot)
	}
	if err := r.prop.InsertWithReceipts(block, res.State, res.Receipts); err != nil {
		return nil, fmt.Errorf("proposer insert at %d: %w", number, err)
	}
	if r.tamper != nil {
		r.tamper(number, block)
	}
	h.blocks = []*types.Block{block}
	if sibling != nil {
		h.blocks = append(h.blocks, sibling)
	}
	h.committed, h.aborts, h.dropped = res.Committed, res.Aborts, res.Dropped
	r.dropped += res.Dropped

	tb := time.Now()
	r.pnode.Broadcast(block)
	if sibling != nil {
		r.snode.Broadcast(sibling)
	}
	outs := make(map[types.Hash]pipeline.Outcome, len(h.blocks))
	timeout := time.NewTimer(outcomeTimeout)
	defer timeout.Stop()
	for len(outs) < len(h.blocks) {
		select {
		case out := <-r.pipe.Results():
			outs[out.Block.Hash()] = out
		case <-timeout.C:
			return nil, gateErr("height %d: %d of %d outcomes after %v", number, len(outs), len(h.blocks), outcomeTimeout)
		}
	}
	t3 := time.Now()
	h.propose, h.sealToCommit, h.broadcastTo = t1.Sub(t0), t3.Sub(t1), t3.Sub(tb)

	r.arrivedMu.Lock()
	defer r.arrivedMu.Unlock()
	for i, b := range h.blocks {
		out, ok := outs[b.Hash()]
		if !ok {
			return nil, gateErr("height %d: no outcome for block %d", number, i)
		}
		if out.Err != nil {
			return nil, gateErr("height %d: validator rejected block %d: %v", number, i, out.Err)
		}
		if got := out.Result.State.Root(); got != b.Header.StateRoot {
			return nil, gateErr("height %d: validator state %s != header root %s", number, got, b.Header.StateRoot)
		}
		h.elapsed = append(h.elapsed, out.Elapsed)
		h.deliver = append(h.deliver, r.arrived[b.Hash()].Sub(tb))
		delete(r.arrived, b.Hash())
	}
	if got := outs[block.Hash()].Result.State.Root(); got != res.State.Root() {
		return nil, gateErr("height %d: validator state %s != proposer state %s", number, got, res.State.Root())
	}
	r.heights = append(r.heights, h)
	return h, nil
}

// verifyAll re-executes every block serially off the clock and checks the
// transaction count: generated = committed + dropped + pending.
func (r *rig) verifyAll() error {
	committed := 0
	var blocks []*types.Block
	for _, h := range r.heights {
		committed += h.committed
		blocks = append(blocks, h.blocks...)
	}
	if pending := r.pool.Len(); r.generated != committed+r.dropped+pending {
		return gateErr("tx count: generated %d != committed %d + dropped %d + pending %d",
			r.generated, committed, r.dropped, pending)
	}
	errs := make([]error, len(blocks))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < r.threads; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				b := blocks[i]
				parent := r.val.Block(b.Header.ParentHash)
				if parent == nil {
					errs[i] = gateErr("block %d: parent unknown to the validator", b.Number())
					continue
				}
				if _, err := chain.VerifyBlockSerial(r.val.StateOf(parent.Hash()), &parent.Header, b, r.params); err != nil {
					errs[i] = gateErr("serial re-execution of block %d at height %d: %v", i, b.Number(), err)
				}
			}
		}()
	}
	for i := range blocks {
		next <- i
	}
	close(next)
	wg.Wait()
	return errors.Join(errs...)
}

// heapInuseMB is HeapInuse after a full collection.
func heapInuseMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}
