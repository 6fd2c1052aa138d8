package stats

import (
	"math/bits"
	"slices"
)

// selectInsertionMax is the span below which selection finishes with an
// insertion sort rather than another partition round.
const selectInsertionMax = 16

// floatLess is the order sort.Float64s and slices.Sort use: NaNs sort
// before every number.
func floatLess(a, b float64) bool { return a < b || (a != a && b == b) }

// selectRank rearranges v so that v[k] holds the value a full sort would
// put there, every element of v[:k] orders at or below it and every element
// of v[k+1:] at or above it. It is quickselect with median-of-3 pivots and
// Hoare partitioning, which splits runs of equal values evenly. After a
// bounded number of rounds it sorts what is left, so adversarial input
// cannot drive it quadratic.
func selectRank(v []float64, k int) {
	lo, hi := 0, len(v)
	for rounds := 4 * bits.Len(uint(len(v))); hi-lo > selectInsertionMax; rounds-- {
		if rounds == 0 {
			slices.Sort(v[lo:hi])
			return
		}
		j := partition(v[lo:hi]) + lo
		if k <= j {
			hi = j + 1
		} else {
			lo = j + 1
		}
	}
	insertionSort(v[lo:hi])
}

// partition moves the median of v's first, middle and last elements to
// v[0] and Hoare-partitions v around it. It returns j with 0 ≤ j < len(v)-1
// such that every element of v[:j+1] orders at or below the pivot and every
// element of v[j+1:] at or above it; len(v) must be at least 3.
func partition(v []float64) int {
	a, b, c := 0, len(v)/2, len(v)-1
	if floatLess(v[b], v[a]) {
		a, b = b, a
	}
	if floatLess(v[c], v[b]) {
		b = c
		if floatLess(v[b], v[a]) {
			b = a
		}
	}
	v[0], v[b] = v[b], v[0]
	pivot := v[0]
	i, j := -1, len(v)
	for {
		for i++; floatLess(v[i], pivot); i++ {
		}
		for j--; floatLess(pivot, v[j]); j-- {
		}
		if i >= j {
			return j
		}
		v[i], v[j] = v[j], v[i]
	}
}

func insertionSort(v []float64) {
	for i := 1; i < len(v); i++ {
		x := v[i]
		j := i
		for ; j > 0 && floatLess(x, v[j-1]); j-- {
			v[j] = v[j-1]
		}
		v[j] = x
	}
}
