// Package crypto implements the Keccak-256 hash used throughout Ethereum
// for state roots, transaction hashes, storage-slot addressing and contract
// addresses.
//
// This is legacy Keccak (multi-rate padding starting with 0x01), not the
// NIST SHA3-256 variant (0x06): Ethereum predates FIPS 202 finalization.
package crypto

import (
	"encoding/binary"
	"sync"
)

// rate is the sponge rate in bytes for 256-bit output: 1600/8 - 2*32.
const rate = 136

// Keccak is a streaming Keccak-256 hasher. The zero value is ready to use.
type Keccak struct {
	state  [25]uint64
	buf    [rate]byte
	buffed int
}

// NewKeccak returns a new streaming Keccak-256 hasher.
func NewKeccak() *Keccak { return &Keccak{} }

// Reset restores the hasher to its initial state.
func (k *Keccak) Reset() { *k = Keccak{} }

// Write absorbs p into the sponge. It never fails.
func (k *Keccak) Write(p []byte) (int, error) {
	n := len(p)
	if k.buffed > 0 {
		c := copy(k.buf[k.buffed:], p)
		k.buffed += c
		p = p[c:]
		if k.buffed < rate {
			return n, nil
		}
		absorbBlock(&k.state, k.buf[:])
		k.buffed = 0
	}
	// Full blocks go straight from p into the state, skipping the buffer.
	for len(p) >= rate {
		absorbBlock(&k.state, p[:rate])
		p = p[rate:]
	}
	k.buffed = copy(k.buf[:], p)
	return n, nil
}

// absorbBlock XORs one rate-sized block into the state and permutes.
func absorbBlock(a *[25]uint64, block []byte) {
	_ = block[rate-1] // one bounds check for the whole block
	for i := 0; i < rate/8; i++ {
		a[i] ^= binary.LittleEndian.Uint64(block[i*8:])
	}
	keccakF(a)
}

// finish pads the final partial block tail (len(tail) < rate) with the
// legacy Keccak multi-rate padding 0x01 ... 0x80 (possibly the same byte),
// absorbs it into a, and writes the digest into dst. The padded block is
// built in a stack buffer, so the caller's buffer is left untouched.
func finish(dst *[32]byte, a *[25]uint64, tail []byte) {
	var last [rate]byte
	copy(last[:], tail)
	last[len(tail)] = 0x01
	last[rate-1] |= 0x80
	absorbBlock(a, last[:])
	for i := 0; i < 4; i++ {
		binary.LittleEndian.PutUint64(dst[i*8:], a[i])
	}
}

// sum256 is the one-shot sponge: full blocks are absorbed straight from
// data and only the final partial block is copied, into finish's stack
// buffer.
func sum256(dst *[32]byte, data []byte) {
	var a [25]uint64
	for len(data) >= rate {
		absorbBlock(&a, data[:rate])
		data = data[rate:]
	}
	finish(dst, &a, data)
}

// Sum appends the 32-byte digest to b. The hasher can keep absorbing
// afterwards as if Sum had not been called.
func (k *Keccak) Sum(b []byte) []byte {
	var out [32]byte
	k.SumInto(&out)
	return append(b, out[:]...)
}

// SumInto writes the 32-byte digest into dst without allocating. Like Sum,
// the hasher can keep absorbing afterwards as if SumInto had not been
// called: only the lanes are copied, and the padding happens on the stack.
func (k *Keccak) SumInto(dst *[32]byte) {
	a := k.state
	finish(dst, &a, k.buf[:k.buffed])
}

// Size returns the digest length in bytes.
func (k *Keccak) Size() int { return 32 }

// BlockSize returns the sponge rate in bytes.
func (k *Keccak) BlockSize() int { return rate }

// Keccak256 returns the Keccak-256 digest of the concatenation of the inputs.
func Keccak256(data ...[]byte) []byte {
	out := make([]byte, 32)
	Keccak256Into((*[32]byte)(out), data...)
	return out
}

// Sum256 returns the Keccak-256 digest of data as a fixed array.
func Sum256(data []byte) [32]byte {
	var out [32]byte
	sum256(&out, data)
	return out
}

// hasherPool backs GetHasher/PutHasher: it recycles streaming Keccak
// states, saving both the allocation and the zeroing of the ~350-byte
// struct. Callers must Reset-and-return via PutHasher.
var hasherPool = sync.Pool{New: func() any { return new(Keccak) }}

// GetHasher returns a reset Keccak-256 hasher from the shared pool.
func GetHasher() *Keccak {
	return hasherPool.Get().(*Keccak)
}

// PutHasher resets k and returns it to the shared pool. k must not be used
// after the call.
func PutHasher(k *Keccak) {
	k.Reset()
	hasherPool.Put(k)
}

// Keccak256Into writes the Keccak-256 digest of the concatenation of the
// inputs into dst. It allocates nothing: a single input takes the one-shot
// sponge, several are streamed through a stack-local hasher, and the digest
// lands in caller-owned memory. This is the primitive behind the state
// layer's hashed-key cache and the trie's node references.
func Keccak256Into(dst *[32]byte, data ...[]byte) {
	if len(data) == 1 {
		sum256(dst, data[0])
		return
	}
	var k Keccak
	for _, d := range data {
		k.Write(d)
	}
	k.SumInto(dst)
}
