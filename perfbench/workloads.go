package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"blockpilot/internal/state"
	"blockpilot/internal/trie"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
	"blockpilot/internal/workload"
)

// source is one workload's input stream: the genesis state (on db when the
// workload is disk-backed, in memory when db is nil) and one height's worth
// of transactions per call.
type source struct {
	genesis func(db *trie.Database) *state.Snapshot
	next    func() []*types.Transaction
}

// spec describes one benchmark workload. Params are stamped into every
// result so runs with different workload parameters are never compared.
type spec struct {
	name   string
	disk   bool // state on the disk backend (trie/store)
	fork   bool // a second proposer seals a sibling at every height
	params map[string]any
	// cacheNodes sizes the disk backend's decoded-node LRU.
	cacheNodes int
	newSource  func(seed int64) source
}

// workloads are the benchmark's three traffic mixes. See README.md for why
// each was chosen and which layers it stresses.
var workloads = map[string]*spec{
	"mainnet":       mainnetSpec(),
	"hotspot-fork":  hotspotForkSpec(),
	"transfer-disk": transferDiskSpec(),
}

func generatorSource(cfg workload.Config) func(seed int64) source {
	return func(seed int64) source {
		c := cfg
		c.Seed = seed
		g := workload.New(c)
		return source{
			genesis: func(*trie.Database) *state.Snapshot { return g.GenesisState() },
			next:    g.NextBlockTxs,
		}
	}
}

func configParams(c workload.Config) map[string]any {
	return map[string]any{
		"accounts": c.NumAccounts, "tokens": c.NumTokens, "pairs": c.NumPairs,
		"mixers": c.NumMixers, "tx_per_block": c.TxPerBlock,
		"native_ratio": c.NativeRatio, "swap_ratio": c.SwapRatio, "mixer_ratio": c.MixerRatio,
		"zipf_s": c.ZipfS, "token_zipf_s": c.TokenZipfS, "hot_recipient_ratio": c.HotRecipientRatio,
		"spin_min": c.SpinMin, "spin_max": c.SpinMax, "state": "mem",
	}
}

// mainnetSpec is the paper's calibrated traffic, one block per height.
func mainnetSpec() *spec {
	cfg := workload.Default()
	return &spec{name: "mainnet", params: configParams(cfg), newSource: generatorSource(cfg)}
}

// hotspotForkSpec concentrates swaps on two AMM pairs, so one conflict
// component holds most of the block, and adds a same-height sibling block.
func hotspotForkSpec() *spec {
	cfg := workload.Default()
	cfg.SwapRatio = 0.9
	cfg.NumPairs = 2
	p := configParams(cfg)
	p["blocks_per_height"] = 2
	return &spec{name: "hotspot-fork", fork: true, params: p, newSource: generatorSource(cfg)}
}

// Transfer-disk sizing: the account trie and the token storage tries are far
// larger than the node cache, so reads miss to the store.
const (
	transferAccounts   = 120_000
	transferHolders    = 2_000
	transferTokens     = 16
	transferTxPerBlock = 400
	transferCacheNodes = 16_384
)

func transferDiskSpec() *spec {
	return &spec{
		name: "transfer-disk", disk: true, cacheNodes: transferCacheNodes,
		params: map[string]any{
			"accounts": transferAccounts, "token_holders": transferHolders, "tokens": transferTokens,
			"tx_per_block": transferTxPerBlock, "native_ratio": 0.5, "cache_nodes": transferCacheNodes,
			"state": "disk",
		},
		newSource: func(seed int64) source {
			g := newTransferGen(seed)
			return source{genesis: g.genesis, next: g.next}
		},
	}
}

// transferGen produces plain value transfers and token transfers with no
// compute padding. Token senders are drawn from the seeded holders, so no
// transfer reverts, and each holder sends only one token, so token traffic
// splits into one small conflict component per token. Recipients span the
// whole population, so token storage tries grow as the run writes new
// holders.
type transferGen struct {
	rng      *rand.Rand
	accounts []types.Address
	tokens   []types.Address
	nonces   map[types.Address]uint64
}

func newTransferGen(seed int64) *transferGen {
	g := &transferGen{
		rng:      rand.New(rand.NewSource(seed)),
		accounts: make([]types.Address, transferAccounts),
		tokens:   make([]types.Address, transferTokens),
		nonces:   make(map[types.Address]uint64),
	}
	for i := range g.accounts {
		g.accounts[i] = derivedAddress(0xA0, i)
	}
	for i := range g.tokens {
		g.tokens[i] = derivedAddress(0xC0, i)
	}
	return g
}

func derivedAddress(kind byte, i int) types.Address {
	var a types.Address
	a[0] = kind
	binary.BigEndian.PutUint32(a[16:], uint32(i+1))
	return a
}

func (g *transferGen) genesis(db *trie.Database) *state.Snapshot {
	b := state.NewGenesisBuilder()
	for _, a := range g.accounts {
		b.AddAccount(a, uint256.NewInt(1<<60))
	}
	for _, t := range g.tokens {
		storage := make(map[types.Hash]uint256.Int, transferHolders)
		for _, h := range g.accounts[:transferHolders] {
			storage[h.Hash()] = *uint256.NewInt(1 << 40)
		}
		b.AddContract(t, uint256.NewInt(0), workload.TokenCode, storage)
	}
	return b.BuildInto(db, 0)
}

func (g *transferGen) tx(from types.Address, to types.Address, gas uint64) *types.Transaction {
	n := g.nonces[from]
	g.nonces[from] = n + 1
	tx := &types.Transaction{Nonce: n, Gas: gas, To: to, From: from}
	tx.GasPrice.SetUint64(uint64(1 + g.rng.Intn(100)))
	return tx
}

func (g *transferGen) next() []*types.Transaction {
	txs := make([]*types.Transaction, transferTxPerBlock)
	for i := range txs {
		to := g.accounts[g.rng.Intn(len(g.accounts))]
		if i%2 == 0 {
			tx := g.tx(g.accounts[g.rng.Intn(len(g.accounts))], to, 21_000)
			tx.Value.SetUint64(uint64(1 + g.rng.Intn(1000)))
			txs[i] = tx
			continue
		}
		holder := g.rng.Intn(transferHolders)
		tx := g.tx(g.accounts[holder], g.tokens[holder%transferTokens], 100_000)
		data := make([]byte, 96) // recipient word, amount word, zero spin word
		toWord := to.Hash()
		copy(data, toWord[:])
		binary.BigEndian.PutUint64(data[56:64], uint64(1+g.rng.Intn(100)))
		tx.Data = data
		txs[i] = tx
	}
	return txs
}

func lookupWorkload(name string) (*spec, error) {
	s, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want mainnet, hotspot-fork or transfer-disk)", name)
	}
	return s, nil
}
