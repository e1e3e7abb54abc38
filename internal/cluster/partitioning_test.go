package cluster

import (
	"math/rand"
	"testing"

	"skysql/internal/types"
)

func numericRows(rng *rand.Rand, n int) []types.Row {
	out := make([]types.Row, n)
	for i := range out {
		out[i] = types.Row{
			types.Float(rng.Float64() * 100),
			types.Float(rng.Float64() * 100),
		}
	}
	return out
}

func identityKey(r types.Row) (types.Row, error) { return r, nil }

func TestGridAndAnglePreserveRows(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rows := numericRows(rng, 500)
	for _, dist := range []Distribution{Grid, Angle} {
		ctx := NewContext(4)
		out, err := ctx.ExchangePartitioned(NewDataset(rows), dist, identityKey, []bool{true, true})
		if err != nil {
			t.Fatalf("%v: %v", dist, err)
		}
		if out.NumRows() != 500 {
			t.Errorf("%v: rows lost: %d", dist, out.NumRows())
		}
		if len(out.Parts) > 4 {
			t.Errorf("%v: %d partitions for 4 executors", dist, len(out.Parts))
		}
		if len(out.Parts) < 2 {
			t.Errorf("%v: no parallelism (%d partitions)", dist, len(out.Parts))
		}
	}
}

func TestGridAngleEmptyInput(t *testing.T) {
	ctx := NewContext(4)
	for _, dist := range []Distribution{Grid, Angle} {
		out, err := ctx.ExchangePartitioned(&Dataset{}, dist, identityKey, nil)
		if err != nil || out.NumRows() != 0 {
			t.Errorf("%v empty: %v %v", dist, out, err)
		}
	}
}

func TestGridAngleRejectNonNumeric(t *testing.T) {
	ctx := NewContext(2)
	rows := []types.Row{{types.Str("x")}}
	for _, dist := range []Distribution{Grid, Angle} {
		if _, err := ctx.ExchangePartitioned(NewDataset(rows), dist, identityKey, []bool{true}); err == nil {
			t.Errorf("%v: non-numeric keys must error", dist)
		}
	}
}

func TestGridAngleConstantDimension(t *testing.T) {
	// A dimension with zero span must not divide by zero.
	rows := make([]types.Row, 50)
	for i := range rows {
		rows[i] = types.Row{types.Float(7), types.Float(float64(i))}
	}
	ctx := NewContext(3)
	for _, dist := range []Distribution{Grid, Angle} {
		out, err := ctx.ExchangePartitioned(NewDataset(rows), dist, identityKey, []bool{true, true})
		if err != nil {
			t.Fatalf("%v: %v", dist, err)
		}
		if out.NumRows() != 50 {
			t.Errorf("%v: rows lost", dist)
		}
	}
}

func TestAngleSeparatesRays(t *testing.T) {
	// Anti-correlated extremes lie on different rays and must land in
	// different partitions: (low, high) vs (high, low).
	rows := []types.Row{
		{types.Float(1), types.Float(99)},
		{types.Float(2), types.Float(98)},
		{types.Float(99), types.Float(1)},
		{types.Float(98), types.Float(2)},
	}
	ctx := NewContext(4)
	out, err := ctx.ExchangePartitioned(NewDataset(rows), Angle, identityKey, []bool{true, true})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Parts) < 2 {
		t.Errorf("angle partitioning put opposite rays in one partition: %v", out.Parts)
	}
	// Rows with near-identical angles stay together.
	for _, p := range out.Parts {
		for _, r := range p {
			lowFirst := r[0].AsFloat() < 50
			for _, r2 := range p {
				if (r2[0].AsFloat() < 50) != lowFirst {
					t.Errorf("mixed rays in one partition: %v and %v", r, r2)
				}
			}
		}
	}
}

func TestGridAngleShuffleCharged(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ctx := NewContext(2)
	rows := numericRows(rng, 100)
	if _, err := ctx.ExchangePartitioned(NewDataset(rows), Grid, identityKey, []bool{true, true}); err != nil {
		t.Fatal(err)
	}
	if ctx.Metrics.Count(RowsShuffled) != 100 {
		t.Errorf("shuffled = %d, want 100", ctx.Metrics.Count(RowsShuffled))
	}
}

func TestDistributionStringsIncludeNewSchemes(t *testing.T) {
	if Grid.String() != "Grid" || Angle.String() != "Angle" {
		t.Error("new distributions must render their names")
	}
}
