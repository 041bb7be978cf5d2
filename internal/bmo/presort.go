package bmo

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// The presort puts row indices into the key order (head, key vector
// lexicographically, input index) that every path sorts and merges by.
// It does not run the comparator over the whole input: a stable LSD
// radix sort orders the rows by a 32-bit image of their heads, saturated
// sums, and only runs of equal images go to the comparator
// (VecInput.order).
//
// The image is exact where it matters. Float64bits is monotone on
// non-negative floats and antitone on negative ones, so setting the sign
// bit of a non-negative sum and flipping every bit of a negative one
// gives an unsigned integer that orders as the float does. Keeping only
// its top 32 bits maps sums that differ in the low mantissa bits to one
// image, but never reverses two sums: the image is still monotone, so
// rows with different images are already in key order, and rows with
// equal images form a contiguous run that the comparator then orders by
// the exact key. Two values would break this. -0 and +0 compare equal
// as sums but differ in their bits; a saturated sum starts at +0, and
// no addition from there yields -0. NaN compares false both ways, so no
// position for it is right; a NaN sum is an error.

const (
	radixBits   = 11
	radixBucket = 1 << radixBits
	radixMask   = radixBucket - 1
	radixPasses = 3 // ⌈32 / radixBits⌉; the counting loop names each pass
	// radixMinLen is the length below which the comparator sort alone
	// is cheaper than clearing and scanning the count tables.
	radixMinLen = 64
)

// presortBuf is one sort's scratch space: 12 bytes per row. Buffers are
// pooled, because a full-table skyline sorts every row of its input and
// fresh buffers per statement would add to its allocation volume.
type presortBuf struct {
	keys, keysTmp []uint32
	idxTmp        []int32
	counts        [radixPasses][radixBucket]uint32
}

var presortPool = sync.Pool{New: func() any { return new(presortBuf) }}

// sumImage is the top 32 bits of the order-preserving unsigned image of
// a sum that is not NaN.
func sumImage(s float64) uint32 {
	b := math.Float64bits(s)
	if b>>63 == 0 {
		b |= 1 << 63
	} else {
		b = ^b
	}
	return uint32(b >> 32)
}

// nanSumError reports row i's NaN score sum.
func nanSumError(i int32) error {
	return fmt.Errorf("bmo: the score sum of row %d is NaN", i)
}

// sortVecOrder sorts the row indices idx by the monotone key. Sorting
// 4-byte indices keeps moves cheap at millions of rows.
func sortVecOrder(idx []int32, in *VecInput) error {
	n := len(idx)
	if n < radixMinLen {
		for _, i := range idx {
			if s := in.Sums[i]; s != s {
				return nanSumError(i)
			}
		}
		slices.SortFunc(idx, in.order())
		return nil
	}
	buf := presortPool.Get().(*presortBuf)
	defer presortPool.Put(buf)
	if cap(buf.keys) < n {
		buf.keys, buf.keysTmp, buf.idxTmp = make([]uint32, n), make([]uint32, n), make([]int32, n)
	}
	keys, keysTmp, idxTmp := buf.keys[:n], buf.keysTmp[:n], buf.idxTmp[:n]
	counts := &buf.counts
	*counts = [radixPasses][radixBucket]uint32{}
	for k, i := range idx {
		s := in.Sums[i]
		if s != s {
			return nanSumError(i)
		}
		key := sumImage(s)
		keys[k] = key
		counts[0][key&radixMask]++
		counts[1][key>>radixBits&radixMask]++
		counts[2][key>>(2*radixBits)&radixMask]++
	}

	src, dst, srcKeys, dstKeys := idx, idxTmp, keys, keysTmp
	for p := range counts {
		shift, cnt := p*radixBits, &counts[p]
		if cnt[srcKeys[0]>>shift&radixMask] == uint32(n) {
			continue // one digit for every row: the pass would not move any
		}
		var at uint32
		for d, c := range cnt {
			cnt[d] = at
			at += c
		}
		for k, key := range srcKeys {
			d := key >> shift & radixMask
			dstKeys[cnt[d]], dst[cnt[d]] = key, src[k]
			cnt[d]++
		}
		src, dst, srcKeys, dstKeys = dst, src, dstKeys, srcKeys
	}
	if &src[0] != &idx[0] {
		copy(idx, src)
	}

	order := in.order()
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && srcKeys[hi] == srcKeys[lo] {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(idx[lo:hi], order)
		}
		lo = hi
	}
	return nil
}
