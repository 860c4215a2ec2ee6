package state

import (
	"encoding/binary"
	"testing"

	"blockpilot/internal/types"
)

// TestKeyCacheShardSpread checks that the key layouts the workloads use
// spread across the cache's shards instead of piling into one lock. Both
// generators derive addresses as a fixed leading kind (a string in
// internal/workload, a single byte in perfbench) plus a big-endian counter
// at bytes 16..19, and token mapping slots are those addresses left-padded
// to 32 bytes, so the first byte of every slot is zero.
func TestKeyCacheShardSpread(t *testing.T) {
	const n = 64
	derive := func(kind []byte, i int) types.Address {
		var a types.Address
		copy(a[:], kind)
		binary.BigEndian.PutUint32(a[16:], uint32(i+1))
		return a
	}
	kinds := [][]byte{[]byte("eoa"), []byte("token"), []byte("pair"), []byte("mixer"), {0xA0}, {0xC0}}
	for _, kind := range kinds {
		addrShards := map[int]bool{}
		slotShards := map[int]bool{}
		for i := 0; i < n; i++ {
			a := derive(kind, i)
			addrShards[keyShard(a[:])] = true
			slot := a.Hash()
			slotShards[keyShard(slot[:])] = true
		}
		if len(addrShards) < 12 {
			t.Errorf("kind %q: %d addresses land in %d of %d shards, want >= 12", kind, n, len(addrShards), keyCacheShards)
		}
		if len(slotShards) < 12 {
			t.Errorf("kind %q: %d slots land in %d of %d shards, want >= 12", kind, n, len(slotShards), keyCacheShards)
		}
	}
}

func TestKeyCacheMemoizes(t *testing.T) {
	c := newKeyCache()
	a := types.Address{0xA0, 19: 7}
	h1 := c.HashedAddr(a)
	h2 := c.HashedAddr(a)
	if &h1[0] != &h2[0] {
		t.Fatal("HashedAddr recomputed a cached key")
	}
	slot := a.Hash()
	if s1, s2 := c.HashedSlot(slot), c.HashedSlot(slot); &s1[0] != &s2[0] {
		t.Fatal("HashedSlot recomputed a cached key")
	}
}
