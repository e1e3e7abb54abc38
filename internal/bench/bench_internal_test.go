package bench

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"skysql/internal/core"
)

func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.Scale = 0.02 // tiny datasets so unit tests stay fast
	cfg.Timeout = 30 * time.Second
	return cfg
}

func TestRunProducesMeasurements(t *testing.T) {
	cfg := tinyConfig()
	for _, alg := range AlgorithmsFor(true) {
		m := cfg.Run(Spec{
			Dataset: "airbnb", Complete: true, Dimensions: 3,
			Tuples: 500, Executors: 3, Algorithm: alg,
		})
		if m.Err != nil {
			t.Fatalf("%s: %v", alg.Name, m.Err)
		}
		if m.Duration <= 0 || m.ResultRows == 0 {
			t.Errorf("%s: empty measurement %+v", alg.Name, m)
		}
		if m.PeakModelMB <= cfg.ExecutorOverheadMB {
			t.Errorf("%s: memory model missing data component", alg.Name)
		}
	}
}

func TestAllAlgorithmsReturnSameSkylineSize(t *testing.T) {
	cfg := tinyConfig()
	for _, dataset := range []string{"airbnb", "store_sales", "musicbrainz"} {
		for _, complete := range []bool{true, false} {
			want := -1
			for _, alg := range AlgorithmsFor(complete) {
				m := cfg.Run(Spec{
					Dataset: dataset, Complete: complete, Dimensions: 4,
					Tuples: 400, Executors: 3, Algorithm: alg,
				})
				if m.Err != nil {
					t.Fatalf("%s/%v/%s: %v", dataset, complete, alg.Name, m.Err)
				}
				if want == -1 {
					want = m.ResultRows
				} else if m.ResultRows != want {
					t.Errorf("%s/%v: %s returned %d rows, want %d",
						dataset, complete, alg.Name, m.ResultRows, want)
				}
			}
		}
	}
}

func TestIncompleteVariantUsesTwoAlgorithms(t *testing.T) {
	if len(AlgorithmsFor(true)) != 4 {
		t.Error("complete data must evaluate 4 algorithms (§6.3)")
	}
	inc := AlgorithmsFor(false)
	if len(inc) != 2 {
		t.Fatalf("incomplete data must evaluate 2 algorithms, got %d", len(inc))
	}
	names := inc[0].Name + "," + inc[1].Name
	if !strings.Contains(names, "distributed incomplete") || !strings.Contains(names, "reference") {
		t.Errorf("wrong incomplete algorithms: %s", names)
	}
}

func TestExperimentRegistry(t *testing.T) {
	var got []string
	for _, e := range Experiments() {
		got = append(got, e.ID)
	}
	var want []string
	for fig := 3; fig <= 19; fig++ {
		want = append(want, fmt.Sprintf("fig%d", fig))
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("experiments = %v, want exactly the paper's figures %v in order", got, want)
	}
	for _, id := range want {
		if _, err := ExperimentByID(id); err != nil {
			t.Errorf("missing experiment %s: %v", id, err)
		}
	}
	for _, id := range []string{"fig99", "kernel", "ablation", "serve"} {
		if _, err := ExperimentByID(id); err == nil {
			t.Errorf("unknown experiment %q must error", id)
		}
	}
}

func TestSweepOutputFormat(t *testing.T) {
	cfg := tinyConfig()
	var buf bytes.Buffer
	s := dimsSweep(cfg, "airbnb", true, 300, 2, false)
	s.colLabels = []string{"1", "2"} // shrink for test speed
	inner := s.specFor
	s.specFor = func(alg core.Algorithm, col int) Spec { return inner(alg, col) }
	if err := s.run(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"algorithm", "distributed complete", "reference", "relative to reference", "%"} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "WARNING") {
		t.Errorf("algorithms disagreed:\n%s", out)
	}
}

func TestTimeoutMarksCell(t *testing.T) {
	cfg := tinyConfig()
	cfg.Timeout = 1 * time.Nanosecond
	m := cfg.Run(Spec{
		Dataset: "airbnb", Complete: true, Dimensions: 2,
		Tuples: 200, Executors: 1, Algorithm: core.Algorithms()[0],
	})
	if !m.TimedOut || m.Cell() != "t.o." {
		t.Errorf("timeout not detected: %+v", m)
	}
}

func TestBadSpecErrors(t *testing.T) {
	cfg := tinyConfig()
	if m := cfg.Run(Spec{Dataset: "nope", Dimensions: 1, Tuples: 10, Executors: 1}); m.Err == nil {
		t.Error("unknown dataset must error")
	}
	if m := cfg.Run(Spec{Dataset: "airbnb", Dimensions: 9, Tuples: 10, Executors: 1}); m.Err == nil {
		t.Error("out-of-range dimensions must error")
	}
}

func TestStoreSalesSweepScaling(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 0.5
	sizes := cfg.storeSalesSweep()
	if len(sizes) != 4 || sizes[0] != 5000 || sizes[3] != 50000 {
		t.Errorf("scaled sweep = %v", sizes)
	}
}

func TestVerifyProcedure(t *testing.T) {
	cfg := tinyConfig()
	var buf bytes.Buffer
	if err := Verify(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "integrated == reference") {
		t.Errorf("verify output:\n%s", out)
	}
	if strings.Count(out, "verified") != 24 { // 2 datasets × 2 variants × 6 dims
		t.Errorf("expected 24 verification cases, output:\n%s", out)
	}
}
