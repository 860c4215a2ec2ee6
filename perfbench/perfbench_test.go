package main

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"blockpilot/internal/types"
)

// A block whose header state root was corrupted before Broadcast must fail
// the run through the correctness gate, with no result.
func TestGateFiresOnTamperedStateRoot(t *testing.T) {
	tampered := false
	res, _, err := run(options{workload: "mainnet", seed: 1, seconds: 1, workdir: t.TempDir()},
		func(number uint64, b *types.Block) {
			if number == warmupHeights+2 {
				b.Header.StateRoot[0] ^= 0xff
				tampered = true
			}
		})
	if !tampered {
		t.Fatal("tamper hook never ran")
	}
	if res != nil || !errors.Is(err, errGate) {
		t.Fatalf("want a gate error and no result, got result %v, err %v", res, err)
	}
	if !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("want the validator's rejection, got %v", err)
	}
}

// Every workload's rig commits blocks that pass the gate, the fork
// workload delivers two blocks per height, and the disk workload's validator
// commits into a store of its own.
func TestRigHeightsPassGate(t *testing.T) {
	for _, name := range []string{"mainnet", "hotspot-fork", "transfer-disk"} {
		t.Run(name, func(t *testing.T) {
			if testing.Short() && name == "transfer-disk" {
				t.Skip("disk genesis takes seconds")
			}
			sp, err := lookupWorkload(name)
			if err != nil {
				t.Fatal(err)
			}
			r, err := newRig(sp, 7, t.TempDir(), runtime.GOMAXPROCS(0))
			if err != nil {
				t.Fatal(err)
			}
			defer r.close()
			before := readDB(r)
			for i := 0; i < 3; i++ {
				h, err := r.step()
				if err != nil {
					t.Fatal(err)
				}
				want := 1
				if sp.fork {
					want = 2
				}
				if len(h.blocks) != want || len(h.elapsed) != want || h.committed != len(h.txs) {
					t.Fatalf("height %d: %d blocks, %d outcomes, %d of %d txs committed",
						i+1, len(h.blocks), len(h.elapsed), h.committed, len(h.txs))
				}
			}
			if err := r.verifyAll(); err != nil {
				t.Fatal(err)
			}
			// On the disk backend the validator writes its own store.
			if after := readDB(r); sp.disk && (r.valDB == r.propDB || after.size <= before.size) {
				t.Fatalf("validator store: shared %v, size %d -> %d", r.valDB == r.propDB, before.size, after.size)
			}
		})
	}
}
