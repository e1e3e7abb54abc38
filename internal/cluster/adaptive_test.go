package cluster

import (
	"fmt"
	"strings"
	"testing"

	"skysql/internal/cost"
	"skysql/internal/types"
)

func rowsOfN(n int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.Int(int64(i))}
	}
	return rows
}

// TestPartitionTargetChoices pins the partition-count arithmetic across
// the three modes — static, explicit target, cost-chosen — over tiny and
// large inputs, together with the decision record each mode leaves: none
// for the static fan-out, one exchange-target cost decision otherwise.
func TestPartitionTargetChoices(t *testing.T) {
	cases := []struct {
		name       string
		rows       int
		explicit   int
		adaptive   bool
		wantParts  int
		wantCost   int // recorded exchange-target cost decisions
		wantChoice string
	}{
		{"static tiny", 100, 0, false, 8, 0, ""},
		{"static large", 1 << 15, 0, false, 8, 0, ""},
		{"explicit target tiny", 100, 2048, false, 1, 1, "explicit"},
		{"explicit target mid", 5000, 2048, false, 3, 1, "explicit"},
		{"cost-chosen tiny", 100, 0, true, 1, 1, "adaptive"},
		{"cost-chosen mid", 5000, 0, true, 3, 1, "adaptive"},
		// 8 executors × the 2048-row floor: above it the even split keeps
		// every executor busy, and the decision reports static.
		{"cost-chosen large", 8 * cost.MinPartitionRows, 0, true, 8, 1, "static"},
		// Explicit target wins over the cost-chosen default.
		{"explicit beats cost", 100, 50, true, 2, 1, "explicit"},
	}
	for _, tc := range cases {
		c := NewContext(8)
		c.TargetRowsPerPartition = tc.explicit
		c.AdaptiveExchange = tc.adaptive
		ds, err := c.Exchange(NewDataset(rowsOfN(tc.rows)), Unspecified, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := len(ds.Parts); got != tc.wantParts {
			t.Errorf("%s: partitions = %d, want %d", tc.name, got, tc.wantParts)
		}
		var costDs []CostDecision
		for _, d := range c.Metrics.CostDecisions() {
			if d.Site == "exchange-target" {
				costDs = append(costDs, d)
			}
		}
		if got := len(costDs); got != tc.wantCost {
			t.Errorf("%s: cost decisions = %d, want %d", tc.name, got, tc.wantCost)
		} else if tc.wantCost > 0 {
			d := costDs[0]
			if d.Choice != tc.wantChoice {
				t.Errorf("%s: choice = %q, want %q", tc.name, d.Choice, tc.wantChoice)
			}
			if d.Rows != tc.rows || d.Selectivity != -1 {
				t.Errorf("%s: decision %+v", tc.name, d)
			}
			if !strings.Contains(d.Detail, "target=") ||
				!strings.HasSuffix(d.Detail, fmt.Sprintf("partitions=%d/8", tc.wantParts)) {
				t.Errorf("%s: detail %q must name the target and partitions=%d/8", tc.name, d.Detail, tc.wantParts)
			}
		}
		if got := ds.NumRows(); got != tc.rows {
			t.Errorf("%s: rows lost: %d != %d", tc.name, got, tc.rows)
		}
	}
}

// TestCostDecisionString pins the rendering EXPLAIN and the shell use.
func TestCostDecisionString(t *testing.T) {
	d := CostDecision{Site: "decode-at-scan", Choice: "defer", Rows: 100, Selectivity: 0.25, Detail: "width=3"}
	want := "decode-at-scan: defer (rows=100, selectivity=0.250, width=3)"
	if d.String() != want {
		t.Errorf("String() = %q, want %q", d.String(), want)
	}
	n := CostDecision{Site: "exchange-target", Choice: "adaptive", Rows: 7, Selectivity: -1}
	if got := n.String(); got != "exchange-target: adaptive (rows=7)" {
		t.Errorf("String() = %q", got)
	}
	var m *Metrics
	if m.Report() != "" || m.CostDecisions() != nil {
		t.Error("nil metrics must be inert")
	}
	m = &Metrics{}
	m.AddCostDecision(d)
	if !strings.Contains(m.Report(), "cost decisions:\n  decode-at-scan: defer") {
		t.Errorf("Report = %q", m.Report())
	}
}
