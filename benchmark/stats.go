package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted and is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// quartiles returns the cut points Python's statistics.quantiles(xs, n=4)
// gives (the "exclusive" method) — the estimator the acceptance check uses,
// so -repeat reports the spread the same way.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return at(1), at(2), at(3)
}

// normaliser turns wall-clock durations into reference milliseconds. Work
// is cut into blocks; before each block (and once after the last) the
// yardstick kernel runs yardstickCalls times. A block's yardstick is the
// median of the calls in a window of blocks around it, and a duration
// measured inside the block is reported as
//
//	duration ÷ block yardstick × yardstickRefMS.
//
// Host slowdowns are multiplicative on memory-bound code and last seconds,
// so they stretch the work and the yardstick alike and cancel in the ratio.
type normaliser struct {
	y *yardstick
	// calls[b] are the yardstick durations (ms) taken before block b;
	// calls[len(blocks)] the trailing ones.
	calls [][]float64
}

const (
	yardstickCalls  = 3
	yardstickWindow = 2 // blocks on each side joining a block's median
)

func newNormaliser(y *yardstick) *normaliser { return &normaliser{y: y} }

// mark runs the yardstick and starts the next block, returning its index.
func (n *normaliser) mark() int {
	c := make([]float64, yardstickCalls)
	for i := range c {
		c[i] = timeMS(func() { n.y.run() })
	}
	n.calls = append(n.calls, c)
	return len(n.calls) - 1
}

// yard returns block b's yardstick in ms: the median of every call taken
// from yardstickWindow blocks before b to the mark that closes block
// b+yardstickWindow. Call only after the closing mark.
func (n *normaliser) yard(b int) float64 {
	lo, hi := max(b-yardstickWindow, 0), min(b+1+yardstickWindow, len(n.calls)-1)
	var w []float64
	for _, c := range n.calls[lo : hi+1] {
		w = append(w, c...)
	}
	return median(w)
}

// ref converts a raw duration in ms measured in block b to reference ms.
func (n *normaliser) ref(b int, rawMS float64) float64 {
	return rawMS / n.yard(b) * yardstickRefMS
}

// all returns every yardstick call taken so far, in ms.
func (n *normaliser) all() []float64 {
	var out []float64
	for _, c := range n.calls {
		out = append(out, c...)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timeMS runs fn and returns how long it took in ms.
func timeMS(fn func()) float64 {
	t := time.Now()
	fn()
	return ms(time.Since(t))
}

// cv is the coefficient of variation (population standard deviation ÷ mean).
func cv(xs []float64) float64 {
	m := mean(xs)
	if m == 0 {
		return 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - m) * (x - m)
	}
	return math.Sqrt(ss/float64(len(xs))) / m
}
