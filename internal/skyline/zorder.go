package skyline

// ZAddress interleaves the top bits of each normalized-[0,1] coordinate
// into a Morton code (the Z-address of [Lee et al. 2010]), the bucketing
// key of the Zorder exchange distribution. The Z-order curve is a linear
// extension of the dominance partial order: if a dominates b, every
// bucketed coordinate of a is <= b's, so ZAddress(a) <= ZAddress(b).
// Coordinates outside [0,1] (including NaN) clamp to the boundary buckets.
func ZAddress(k []float64) uint64 {
	const bitsPerDim = 10
	var z uint64
	buckets := make([]uint64, len(k))
	for d, v := range k {
		scaled := v * float64(int(1)<<bitsPerDim)
		var b uint64
		if scaled > 0 {
			b = uint64(scaled)
		}
		if b >= 1<<bitsPerDim {
			b = 1<<bitsPerDim - 1
		}
		buckets[d] = b
	}
	bit := 0
	for level := bitsPerDim - 1; level >= 0 && bit < 64; level-- {
		for d := 0; d < len(k) && bit < 64; d++ {
			z = (z << 1) | ((buckets[d] >> uint(level)) & 1)
			bit++
		}
	}
	return z
}
