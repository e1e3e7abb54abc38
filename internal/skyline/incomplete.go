package skyline

// GlobalIncomplete computes the global skyline over (potentially)
// incomplete data with the pairwise flag-based algorithm of paper §5.7 and
// Appendix A.
//
// Because the incomplete-data dominance relation is not transitive and may
// contain cycles, a dominated tuple must NOT be deleted immediately: it may
// be the only tuple dominating some other tuple. The algorithm therefore
// compares all pairs, records a "dominated" flag, and only removes flagged
// tuples after every pair has been processed. This is exactly the
// correction of the erroneous algorithm of [Gulzar et al. 2019] that the
// paper describes in Appendix A.
func GlobalIncomplete(points []Point, dirs []Dir, distinct bool, stats *Stats) ([]Point, error) {
	var local Counters
	defer stats.Merge(&local)
	n := len(points)
	dominated := make([]bool, n)
	duplicate := make([]bool, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			rel, err := CompareIncomplete(points[i].Dims, points[j].Dims, dirs, &local)
			if err != nil {
				return nil, err
			}
			switch rel {
			case LeftDominates:
				dominated[j] = true
			case RightDominates:
				dominated[i] = true
			case Equal:
				if distinct {
					duplicate[j] = true // keep the first occurrence
				}
			}
		}
	}
	out := make([]Point, 0, n)
	for i, p := range points {
		if !dominated[i] && !duplicate[i] {
			out = append(out, p)
		}
	}
	return out, nil
}

// LocalIncomplete computes the skyline of ONE null-bitmap partition.
// Inside a partition every tuple has NULLs in the same dimensions, so the
// dominance relation restricted to the partition is transitive
// (Lemma 5.1's proof) and the BNL window algorithm is applicable.
func LocalIncomplete(points []Point, dirs []Dir, distinct bool, stats *Stats) ([]Point, error) {
	return BNL(points, dirs, distinct, CompareIncomplete, stats)
}

// PartitionByNullBitmap splits points into groups sharing a null bitmap,
// in first-seen order. It is the in-process equivalent of the engine's
// NullBitmap exchange and is used directly by tests.
func PartitionByNullBitmap(points []Point) [][]Point {
	index := make(map[uint64]int)
	var out [][]Point
	for _, p := range points {
		b := NullBitmap(p.Dims)
		i, ok := index[b]
		if !ok {
			i = len(out)
			index[b] = i
			out = append(out, nil)
		}
		out[i] = append(out[i], p)
	}
	return out
}

// NaiveComplete is the O(n²) textbook skyline over complete data: a point
// survives iff no other point dominates it. It exists as the correctness
// oracle for property-based tests.
func NaiveComplete(points []Point, dirs []Dir, distinct bool, stats *Stats) ([]Point, error) {
	return naive(points, dirs, distinct, Compare, stats)
}

// NaiveIncomplete is the O(n²) oracle under the incomplete-data dominance
// definition, implementing SKY(R) = {r ∈ R | ¬∃s ∈ R: s ≺ r} directly.
func NaiveIncomplete(points []Point, dirs []Dir, distinct bool, stats *Stats) ([]Point, error) {
	return naive(points, dirs, distinct, CompareIncomplete, stats)
}

func naive(points []Point, dirs []Dir, distinct bool, cmp CompareFunc, stats *Stats) ([]Point, error) {
	var local Counters
	defer stats.Merge(&local)
	out := make([]Point, 0, len(points))
	for i, p := range points {
		keep := true
		for j, q := range points {
			if i == j {
				continue
			}
			rel, err := cmp(q.Dims, p.Dims, dirs, &local)
			if err != nil {
				return nil, err
			}
			if rel == LeftDominates {
				keep = false
				break
			}
			if distinct && rel == Equal && j < i {
				keep = false // an earlier duplicate already represents p
				break
			}
		}
		if keep {
			out = append(out, p)
		}
	}
	return out, nil
}
