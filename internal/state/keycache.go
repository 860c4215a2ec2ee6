package state

import (
	"encoding/binary"
	"sync"

	"blockpilot/internal/crypto"
	"blockpilot/internal/types"
)

// keyCache memoizes the trie keys of the world state — keccak(address) for
// account leaves and keccak(slot) for storage leaves. Before this cache,
// every Snapshot read hashed its key on the way in and every Commit hashed
// the same keys again on the way out; with hot contracts a single block
// recomputed identical digests hundreds of times. The cache is shared by a
// snapshot and everything derived from it (Copy/Commit/CommitParallel pass
// the pointer along), because the mapping is a pure function of the key and
// never invalidates.
//
// Concurrency: snapshots are read concurrently by many overlays and
// CommitParallel hashes keys from several workers, so the cache is sharded
// 16 ways with per-shard RWMutexes. Each shard is capacity-bounded; when a
// shard fills up it is reset rather than evicted entry-by-entry, which
// keeps the common case (a working set far below the cap) a single RLock +
// map hit. A miss allocates only the 32-byte digest, which the map holds by
// pointer and callers share as a slice.
type keyCache struct {
	shards [keyCacheShards]keyCacheShard
}

const (
	keyCacheShards = 16
	// keyCacheShardCap bounds each shard (≈64K addresses + 64K slots across
	// the cache, ~10 MB worst case) so a long-lived chain cannot grow it
	// without bound.
	keyCacheShardCap = 4096
)

type keyCacheShard struct {
	mu    sync.RWMutex
	addrs map[types.Address]*[32]byte
	slots map[types.Hash]*[32]byte
}

func newKeyCache() *keyCache { return &keyCache{} }

// keyShard picks a key's shard from a fold of its first and last four
// bytes. Keys are not uniform in any single byte: workload addresses share
// their leading kind byte and differ in a trailing counter, and mapping
// slots are left-padded addresses whose first byte is always zero. Folding
// both ends spreads those across all shards, and keeps spreading real
// keccak-derived keys, which are uniform everywhere.
func keyShard(k []byte) int {
	x := binary.LittleEndian.Uint32(k) ^ binary.BigEndian.Uint32(k[len(k)-4:])
	x ^= x >> 16
	x ^= x >> 8
	return int(x & (keyCacheShards - 1))
}

// HashedAddr returns keccak(addr.Bytes()), memoized.
func (c *keyCache) HashedAddr(addr types.Address) []byte {
	sh := &c.shards[keyShard(addr[:])]
	sh.mu.RLock()
	d, ok := sh.addrs[addr]
	sh.mu.RUnlock()
	if ok {
		return d[:]
	}
	d = new([32]byte)
	crypto.Keccak256Into(d, addr[:])
	sh.mu.Lock()
	if sh.addrs == nil || len(sh.addrs) >= keyCacheShardCap {
		sh.addrs = make(map[types.Address]*[32]byte, 64)
	}
	sh.addrs[addr] = d
	sh.mu.Unlock()
	return d[:]
}

// HashedSlot returns keccak(slot.Bytes()), memoized.
func (c *keyCache) HashedSlot(slot types.Hash) []byte {
	sh := &c.shards[keyShard(slot[:])]
	sh.mu.RLock()
	d, ok := sh.slots[slot]
	sh.mu.RUnlock()
	if ok {
		return d[:]
	}
	d = new([32]byte)
	crypto.Keccak256Into(d, slot[:])
	sh.mu.Lock()
	if sh.slots == nil || len(sh.slots) >= keyCacheShardCap {
		sh.slots = make(map[types.Hash]*[32]byte, 64)
	}
	sh.slots[slot] = d
	sh.mu.Unlock()
	return d[:]
}
