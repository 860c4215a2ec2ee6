package crypto

import (
	"bytes"
	"encoding/hex"
	"math/bits"
	"math/rand"
	"testing"
)

// Known-answer vectors for legacy Keccak-256.
var katVectors = []struct {
	in   string
	want string
}{
	{"", "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"},
	{"abc", "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"},
	{"The quick brown fox jumps over the lazy dog",
		"4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15"},
	{"The quick brown fox jumps over the lazy dog.",
		"578951e24efd62a3d63a86f7cd19aaa53c898fe287d2552133220370240b572d"},
}

func TestKnownAnswers(t *testing.T) {
	for _, v := range katVectors {
		got := hex.EncodeToString(Keccak256([]byte(v.in)))
		if got != v.want {
			t.Errorf("Keccak256(%q) = %s, want %s", v.in, got, v.want)
		}
	}
}

func TestStreamingMatchesOneShot(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for size := 0; size < 600; size += 7 {
		data := make([]byte, size)
		r.Read(data)
		want := Keccak256(data)

		k := NewKeccak()
		// Write in random-sized chunks.
		rest := data
		for len(rest) > 0 {
			n := r.Intn(len(rest)) + 1
			k.Write(rest[:n])
			rest = rest[n:]
		}
		if got := k.Sum(nil); !bytes.Equal(got, want) {
			t.Fatalf("streaming mismatch at size %d", size)
		}
	}
}

func TestSumDoesNotDisturbState(t *testing.T) {
	k := NewKeccak()
	k.Write([]byte("hello "))
	_ = k.Sum(nil) // mid-stream digest
	k.Write([]byte("world"))
	got := k.Sum(nil)
	want := Keccak256([]byte("hello world"))
	if !bytes.Equal(got, want) {
		t.Fatal("Sum disturbed absorbing state")
	}
}

func TestMultiInputConcat(t *testing.T) {
	a, b := []byte("foo"), []byte("bar")
	if !bytes.Equal(Keccak256(a, b), Keccak256([]byte("foobar"))) {
		t.Fatal("multi-input Keccak256 is not concatenation")
	}
}

func TestRateBoundary(t *testing.T) {
	// Exactly rate-1, rate, rate+1 bytes exercise the padding edge cases.
	for _, n := range []int{rate - 1, rate, rate + 1, 2 * rate} {
		data := bytes.Repeat([]byte{0xa5}, n)
		d1 := Keccak256(data)
		k := NewKeccak()
		for _, c := range data {
			k.Write([]byte{c})
		}
		if !bytes.Equal(k.Sum(nil), d1) {
			t.Fatalf("rate boundary mismatch at %d bytes", n)
		}
	}
}

func TestReset(t *testing.T) {
	k := NewKeccak()
	k.Write([]byte("junk"))
	k.Reset()
	k.Write([]byte("abc"))
	want, _ := hex.DecodeString(katVectors[1].want)
	if !bytes.Equal(k.Sum(nil), want) {
		t.Fatal("Reset did not clear state")
	}
}

func TestKeccak256IntoMatchesKeccak256(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for size := 0; size < 600; size += 13 {
		data := make([]byte, size)
		r.Read(data)
		var got [32]byte
		Keccak256Into(&got, data)
		if !bytes.Equal(got[:], Keccak256(data)) {
			t.Fatalf("Keccak256Into mismatch at size %d", size)
		}
	}
	// Multi-input concatenation parity.
	var got [32]byte
	Keccak256Into(&got, []byte("foo"), []byte("bar"))
	if !bytes.Equal(got[:], Keccak256([]byte("foobar"))) {
		t.Fatal("Keccak256Into multi-input is not concatenation")
	}
}

func TestSumIntoDoesNotDisturbState(t *testing.T) {
	k := NewKeccak()
	k.Write([]byte("hello "))
	var mid [32]byte
	k.SumInto(&mid) // mid-stream digest
	k.Write([]byte("world"))
	var got [32]byte
	k.SumInto(&got)
	if !bytes.Equal(got[:], Keccak256([]byte("hello world"))) {
		t.Fatal("SumInto disturbed absorbing state")
	}
}

func TestPooledHasherReuse(t *testing.T) {
	k := GetHasher()
	k.Write([]byte("junk"))
	PutHasher(k)
	k2 := GetHasher()
	defer PutHasher(k2)
	k2.Write([]byte("abc"))
	var got [32]byte
	k2.SumInto(&got)
	want, _ := hex.DecodeString(katVectors[1].want)
	if !bytes.Equal(got[:], want) {
		t.Fatal("pooled hasher came back dirty")
	}
}

// TestKeccak256IntoZeroAlloc is the satellite's CI gate: the 32-byte hot
// path (hashed address/slot keys) must not allocate at all.
func TestKeccak256IntoZeroAlloc(t *testing.T) {
	data := make([]byte, 32)
	var out [32]byte
	if allocs := testing.AllocsPerRun(200, func() {
		Keccak256Into(&out, data)
	}); allocs != 0 {
		t.Fatalf("Keccak256Into(32B) allocates %.1f/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		_ = Sum256(data)
	}); allocs != 0 {
		t.Fatalf("Sum256(32B) allocates %.1f/op, want 0", allocs)
	}
	// A full branch node: 16 hash references plus the empty value.
	branch := make([]byte, 532)
	if allocs := testing.AllocsPerRun(200, func() {
		_ = Sum256(branch)
	}); allocs != 0 {
		t.Fatalf("Sum256(532B) allocates %.1f/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		Keccak256Into(&out, data, branch)
	}); allocs != 0 {
		t.Fatalf("Keccak256Into(32B, 532B) allocates %.1f/op, want 0", allocs)
	}
}

// sink keeps the compiler from discarding benchmarked digests.
var sink [32]byte

func BenchmarkKeccak256Into_32(b *testing.B) {
	data := make([]byte, 32)
	b.SetBytes(32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Keccak256Into(&sink, data)
	}
}

func benchmarkSum256(b *testing.B, size int) {
	data := make([]byte, size)
	b.SetBytes(int64(size))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = Sum256(data)
	}
}

func BenchmarkSum256_32(b *testing.B)  { benchmarkSum256(b, 32) }
func BenchmarkSum256_532(b *testing.B) { benchmarkSum256(b, 532) }
func BenchmarkSum256_1K(b *testing.B)  { benchmarkSum256(b, 1024) }

// BenchmarkKeccakF times the keccak-f[1600] permutation alone.
func BenchmarkKeccakF(b *testing.B) {
	var a [25]uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		keccakF(&a)
	}
	sink[0] = byte(a[0])
}

// keccakFReference is the textbook keccak-f[1600]: one loop iteration per
// round, the five steps written out with modular lane indexing. It is slow
// and obviously shaped like the specification, which is what the unrolled
// keccakF is checked against.
func keccakFReference(a *[25]uint64) {
	// rotationOffsets holds the rho-step rotation for lane (x, y) at index x+5y.
	rotationOffsets := [25]int{
		0, 1, 62, 28, 27,
		36, 44, 6, 55, 20,
		3, 10, 43, 25, 39,
		41, 45, 15, 21, 8,
		18, 2, 61, 56, 14,
	}
	for round := 0; round < 24; round++ {
		// theta
		var c [5]uint64
		for x := 0; x < 5; x++ {
			c[x] = a[x] ^ a[x+5] ^ a[x+10] ^ a[x+15] ^ a[x+20]
		}
		for x := 0; x < 5; x++ {
			d := c[(x+4)%5] ^ bits.RotateLeft64(c[(x+1)%5], 1)
			for y := 0; y < 25; y += 5 {
				a[x+y] ^= d
			}
		}
		// rho and pi
		var b [25]uint64
		for x := 0; x < 5; x++ {
			for y := 0; y < 5; y++ {
				b[y+5*((2*x+3*y)%5)] = bits.RotateLeft64(a[x+5*y], rotationOffsets[x+5*y])
			}
		}
		// chi
		for y := 0; y < 25; y += 5 {
			for x := 0; x < 5; x++ {
				a[x+y] = b[x+y] ^ (^b[(x+1)%5+y] & b[(x+2)%5+y])
			}
		}
		// iota
		a[0] ^= roundConstants[round]
	}
}

// referenceSum is a byte-at-a-time legacy Keccak-256 sponge over
// keccakFReference. It shares no code with the package's sponge: the
// message is padded up front, lanes are assembled byte by byte, and the
// digest is squeezed byte by byte.
func referenceSum(data []byte) [32]byte {
	padded := append(append([]byte(nil), data...), 0x01)
	for len(padded)%rate != 0 {
		padded = append(padded, 0)
	}
	padded[len(padded)-1] |= 0x80
	var a [25]uint64
	for off := 0; off < len(padded); off += rate {
		for i := 0; i < rate; i++ {
			a[i/8] ^= uint64(padded[off+i]) << (8 * (i % 8))
		}
		keccakFReference(&a)
	}
	var out [32]byte
	for i := range out {
		out[i] = byte(a[i/8] >> (8 * (i % 8)))
	}
	return out
}

// TestReferenceSumKnownAnswers anchors the reference sponge to the
// published vectors, so the checks below compare against a known-good
// oracle.
func TestReferenceSumKnownAnswers(t *testing.T) {
	for _, v := range katVectors {
		got := referenceSum([]byte(v.in))
		if hex.EncodeToString(got[:]) != v.want {
			t.Errorf("referenceSum(%q) = %x, want %s", v.in, got, v.want)
		}
	}
}

func TestKeccakFMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1600))
	for i := 0; i < 10000; i++ {
		var got, want [25]uint64
		for j := range got {
			got[j] = r.Uint64()
		}
		want = got
		keccakF(&got)
		keccakFReference(&want)
		if got != want {
			t.Fatalf("state %d: keccakF diverges from the reference permutation", i)
		}
	}
}

// TestSpongeBoundaryLengths covers every padding edge of the 136-byte rate:
// empty input, one byte, a word either side of 32, and one byte either side
// of one and two full blocks.
func TestSpongeBoundaryLengths(t *testing.T) {
	for _, n := range []int{0, 1, 31, 32, 33, 135, 136, 137, 271, 272, 273} {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i*7 + n)
		}
		want := referenceSum(data)

		if got := Sum256(data); got != want {
			t.Errorf("Sum256(%d bytes) = %x, want %x", n, got, want)
		}
		var into [32]byte
		Keccak256Into(&into, data)
		if into != want {
			t.Errorf("Keccak256Into(%d bytes) = %x, want %x", n, into, want)
		}
		if got := Keccak256(data); !bytes.Equal(got, want[:]) {
			t.Errorf("Keccak256(%d bytes) = %x, want %x", n, got, want)
		}
		k := NewKeccak()
		k.Write(data)
		if got := k.Sum(nil); !bytes.Equal(got, want[:]) {
			t.Errorf("streaming(%d bytes) = %x, want %x", n, got, want)
		}
	}
}

// FuzzKeccakSponge checks that every way into the sponge agrees with the
// reference: streaming Write in fuzzed chunk sizes with a SumInto after
// every chunk (which must not disturb the final digest), Sum256, and
// Keccak256Into over both the whole input and the chunk list.
func FuzzKeccakSponge(f *testing.F) {
	f.Add([]byte(""), []byte{})
	f.Add([]byte("abc"), []byte{1})
	f.Add(bytes.Repeat([]byte{0xa5}, 273), []byte{135, 1, 136})
	f.Add(bytes.Repeat([]byte{0x5a}, 532), []byte{0, 33, 200, 7})
	f.Fuzz(func(t *testing.T, data, splits []byte) {
		want := referenceSum(data)

		var chunks [][]byte
		rest := data
		for _, s := range splits {
			if len(rest) == 0 {
				break
			}
			n := int(s) % (len(rest) + 1)
			chunks = append(chunks, rest[:n])
			rest = rest[n:]
		}
		chunks = append(chunks, rest)

		k := NewKeccak()
		for _, c := range chunks {
			k.Write(c)
			var mid [32]byte
			k.SumInto(&mid)
		}
		if got := k.Sum(nil); !bytes.Equal(got, want[:]) {
			t.Fatalf("streaming Write+Sum = %x, want %x", got, want)
		}
		if got := Sum256(data); got != want {
			t.Fatalf("Sum256 = %x, want %x", got, want)
		}
		var got [32]byte
		Keccak256Into(&got, data)
		if got != want {
			t.Fatalf("Keccak256Into = %x, want %x", got, want)
		}
		Keccak256Into(&got, chunks...)
		if got != want {
			t.Fatalf("Keccak256Into over %d chunks = %x, want %x", len(chunks), got, want)
		}
	})
}
