package skyline

// The dense dominance test, branch-free. Both vectors are direction-
// normalized (smaller is better) and complete, so one pair is decided by
// two lane masks: bit k of lt is set when w is better than t in lane k,
// bit k of gt when t is better than w. Each bit is a compare and a SETcc,
// with no early exit, so the outcome of one lane — a coin flip on
// anti-correlated data — is never a branch the predictor has to guess.
// Every dense site — the window passes, the screen, the cross-chunk
// filter — decides a pair from the masks alone:
//
//   - w dominates t:  gt == 0 && lt != 0 (or gt == 0 && lt == 0, Equal,
//     where the site's DISTINCT rule counts equality as dominance);
//   - t evicts w:     lt == 0 && gt != 0;
//   - anything else keeps both.
//
// The lanes a test counts as compared (Counters.Comparisons) are those an
// early-exit scan would have read: all of them, unless both masks are set,
// and then up to the first lane at which both sides had been better once.

import "math/bits"

// b2u is 1 when c holds and 0 otherwise, compiled to a SETcc.
func b2u(c bool) uint64 {
	if c {
		return 1
	}
	return 0
}

// laneMasks compares w and t lane by lane; t must be at least as long as
// w, and w at most 64 lanes. It walks the lanes from the last, shifting
// each mask up one bit per lane, so no shift is by a variable amount. It
// inlines at every dense site.
func laneMasks(w, t []float64) (lt, gt uint64) {
	t = t[:len(w)]
	for k := len(w) - 1; k >= 0; k-- {
		x, y := w[k], t[k]
		lt = lt<<1 | b2u(x < y)
		gt = gt<<1 | b2u(x > y)
	}
	return lt, gt
}

// lessMask4 is one mask of a four-lane test, unrolled: bit k is set when
// w[k] < t[k]; lessMask4(w, t), lessMask4(t, w) are laneMasks(w, t). Both
// masks unrolled in one function exceed Go's inlining budget, and the loop
// costs four-lane tests about a tenth more, so the sites pick this form
// themselves when the stride is 4. Lane 3 is read first, so one bounds
// check per vector covers all four.
func lessMask4(w, t []float64) uint64 {
	return b2u(w[3] < t[3])<<3 | b2u(w[2] < t[2])<<2 | b2u(w[1] < t[1])<<1 | b2u(w[0] < t[0])
}

// lanesCompared is the Comparisons count of one test over d lanes: d, or,
// when both masks are set, one past the later of their first set lanes.
// An empty mask's 64 trailing zeros make the max exceed d, so one min
// covers both cases without a branch.
func lanesCompared(lt, gt uint64, d int) int64 {
	return int64(min(max(bits.TrailingZeros64(lt), bits.TrailingZeros64(gt))+1, d))
}
